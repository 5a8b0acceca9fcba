"""Checkpoint persistence for trained heads and calibrators.

Layout (little-endian):
    magic      4 bytes "LTFH"
    version    u32 1
    config     u32 depth, u32 heads, f64 mlp_ratio, f64 dropout,
               u32 dim, u32 num_classes
    params     the head's parameter vector, `decoder.param_layout` order, f64
    counts     num_classes x u64 training class counts
    cal tag    u8: 0 none, 1 crt, 2 lws, 3 disalign, 4 marc
    cal params the calibrator's vector, `calibrators.calibrator_layout`
               order, f64

Round trips are bit-exact. Loading sizes every read from the header and
checks it against the file before allocating.
"""

from __future__ import annotations

import struct

import numpy as np

from .calibrators import Calibrator, calibrator_layout
from .data import expect_end, read_exact
from .decoder import DecoderConfig, DecoderHead, param_layout
from .exceptions import FormatError
from .losses import ClassStats, stats_from_counts
from .numerics import layout_size

MAGIC = b"LTFH"
VERSION = 1
_HEADER = struct.Struct("<4sI")
_CONFIG = struct.Struct("<IIddII")

_CAL_TAGS = {None: 0, "crt": 1, "lws": 2, "disalign": 3, "marc": 4}
_TAG_VARIANTS = {v: k for k, v in _CAL_TAGS.items()}


def save_checkpoint(path, head: DecoderHead, class_counts,
                    calibrator: Calibrator | None = None) -> None:
    counts = np.asarray(class_counts, dtype=np.uint64)
    if counts.shape != (head.config.num_classes,):
        raise FormatError("class counts length must equal num_classes")
    cfg = head.config
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION))
        fh.write(_CONFIG.pack(cfg.depth, cfg.heads, cfg.mlp_ratio, cfg.dropout,
                              cfg.dim, cfg.num_classes))
        fh.write(head.params.vector.astype("<f8", copy=False).tobytes())
        fh.write(counts.astype("<u8").tobytes())
        fh.write(struct.pack("<B", _CAL_TAGS[None if calibrator is None
                                             else calibrator.variant]))
        if calibrator is not None:
            fh.write(calibrator.params.vector.astype("<f8", copy=False).tobytes())


def _read_vector(fh, layout, what: str) -> np.ndarray:
    buf = read_exact(fh, 8 * layout_size(layout), what)
    return np.frombuffer(buf, dtype="<f8").astype(np.float64)


def load_checkpoint(path) -> tuple[DecoderHead, ClassStats, Calibrator | None]:
    with open(path, "rb") as fh:
        magic, version = _HEADER.unpack(read_exact(fh, _HEADER.size, "header"))
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version} at byte 4")
        depth, heads, mlp_ratio, dropout, dim, num_classes = _CONFIG.unpack(
            read_exact(fh, _CONFIG.size, "config"))
        config = DecoderConfig(dim=dim, num_classes=num_classes, depth=depth,
                               heads=heads, mlp_ratio=mlp_ratio, dropout=dropout)
        head = DecoderHead(config, _read_vector(fh, param_layout(config),
                                                "head parameters"))
        counts_buf = read_exact(fh, 8 * num_classes, "class counts")
        counts = np.frombuffer(counts_buf, dtype="<u8").astype(np.int64)
        tag = read_exact(fh, 1, "calibrator tag")[0]
        if tag not in _TAG_VARIANTS:
            raise FormatError(f"unknown calibrator tag {tag} at byte {fh.tell() - 1}")
        variant = _TAG_VARIANTS[tag]
        calibrator = None
        if variant is not None:
            layout = calibrator_layout(variant, num_classes, dim)
            calibrator = Calibrator(variant, num_classes, dim, _read_vector(
                fh, layout, f"{variant} parameters"))
        expect_end(fh)

    return head, stats_from_counts(counts), calibrator
