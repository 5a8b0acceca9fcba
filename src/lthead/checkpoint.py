"""Checkpoint persistence for trained heads and calibrators.

Layout (little-endian):
    magic      4 bytes "LTFH"
    version    u32 1
    config     u32 depth, u32 heads, f64 mlp_ratio, f64 dropout,
               u32 dim, u32 num_classes
    params     the head's parameter vector, `decoder.param_layout` order, f64
    counts     num_classes x u64 training class counts
    cal tag    u8: 0 none, else 1 + the variant's position in
               `calibrators.CALIBRATOR_VARIANTS`
    cal params the calibrator's vector, `calibrators.calibrator_layout`
               order, f64

Round trips are bit-exact. Loading sizes every read from the header and
checks it against the file before allocating.
"""

from __future__ import annotations

import struct

import numpy as np

from .calibrators import CALIBRATOR_VARIANTS, Calibrator, calibrator_layout
from .data import expect_end, read_exact
from .decoder import DecoderConfig, DecoderHead, param_count
from .exceptions import ConfigError, FormatError
from .losses import ClassStats, _checked_counts, stats_from_counts
from .numerics import layout_size

MAGIC = b"LTFH"
VERSION = 1
_HEADER = struct.Struct("<4sI")
# the DecoderConfig fields in header order, one struct code each
_CONFIG_FIELDS = ("depth", "heads", "mlp_ratio", "dropout", "dim", "num_classes")
_CONFIG = struct.Struct("<IIddII")


def save_checkpoint(path, head: DecoderHead, class_counts,
                    calibrator: Calibrator | None = None) -> None:
    """Write a checkpoint, rejecting first what `load_checkpoint` would refuse."""
    cfg = head.config
    if np.shape(class_counts) != (cfg.num_classes,):
        raise FormatError("class counts length must equal num_classes")
    counts, _ = _checked_counts(class_counts)
    if calibrator is not None and (calibrator.num_classes, calibrator.dim) != (
            cfg.num_classes, cfg.dim):
        raise FormatError(
            f"calibrator is for {calibrator.num_classes} classes at dim "
            f"{calibrator.dim}; the head has {cfg.num_classes} at dim {cfg.dim}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION))
        fh.write(_CONFIG.pack(*(getattr(cfg, f) for f in _CONFIG_FIELDS)))
        fh.write(head.params.vector.astype("<f8", copy=False).tobytes())
        fh.write(counts.astype("<u8").tobytes())
        tag = (0 if calibrator is None
               else CALIBRATOR_VARIANTS.index(calibrator.variant) + 1)
        fh.write(struct.pack("<B", tag))
        if calibrator is not None:
            fh.write(calibrator.params.vector.astype("<f8", copy=False).tobytes())


def _read_vector(fh, size: int, what: str) -> np.ndarray:
    buf = read_exact(fh, 8 * size, what)
    return np.frombuffer(buf, dtype="<f8").astype(np.float64)


def load_checkpoint(path) -> tuple[DecoderHead, ClassStats, Calibrator | None]:
    with open(path, "rb") as fh:
        magic, version = _HEADER.unpack(read_exact(fh, _HEADER.size, "header"))
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version} at byte 4")
        values = _CONFIG.unpack(read_exact(fh, _CONFIG.size, "config"))
        try:
            config = DecoderConfig(**dict(zip(_CONFIG_FIELDS, values)))
        except ConfigError as exc:
            raise FormatError(f"bad config at byte {_HEADER.size}: {exc}") from None
        # sized from the header alone: the layout grows with depth, so it is
        # built only once the file is known to hold that many parameters
        head = DecoderHead(config, _read_vector(fh, param_count(config),
                                                "head parameters"))
        num_classes, dim = config.num_classes, config.dim
        counts_buf = read_exact(fh, 8 * num_classes, "class counts")
        counts = np.frombuffer(counts_buf, dtype="<u8").astype(np.int64)
        tag = read_exact(fh, 1, "calibrator tag")[0]
        if tag > len(CALIBRATOR_VARIANTS):
            raise FormatError(f"unknown calibrator tag {tag} at byte {fh.tell() - 1}")
        calibrator = None
        if tag:
            variant = CALIBRATOR_VARIANTS[tag - 1]
            size = layout_size(calibrator_layout(variant, num_classes, dim))
            calibrator = Calibrator(variant, num_classes, dim, _read_vector(
                fh, size, f"{variant} parameters"))
        expect_end(fh)

    return head, stats_from_counts(counts), calibrator
