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

Round trips are bit-exact. `data` frames the file (magic, version,
size-checked reads, copy-free writes); this module states its layout.
"""

from __future__ import annotations

import struct

import numpy as np

from .calibrators import CALIBRATOR_VARIANTS, Calibrator, calibrator_layout
from .data import expect_end, read_array, read_header, write_binary
from .decoder import DecoderConfig, DecoderHead, param_count
from .exceptions import ConfigError, FormatError
from .losses import ClassStats, _checked_counts, stats_from_counts
from .numerics import layout_size

MAGIC = b"LTFH"
VERSION = 1
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
    tag = 0 if calibrator is None else CALIBRATOR_VARIANTS.index(calibrator.variant) + 1
    write_binary(path, MAGIC, VERSION,
                 _CONFIG.pack(*(getattr(cfg, f) for f in _CONFIG_FIELDS)),
                 (head.params.vector, "<f8"), (counts, "<u8"), ([tag], "u1"),
                 *([] if calibrator is None else [(calibrator.params.vector, "<f8")]))


def load_checkpoint(path) -> tuple[DecoderHead, ClassStats, Calibrator | None]:
    with open(path, "rb") as fh:
        values = read_header(fh, MAGIC, VERSION, "checkpoint", _CONFIG)
        try:
            config = DecoderConfig(**dict(zip(_CONFIG_FIELDS, values)))
        except ConfigError as exc:
            raise FormatError(f"bad config at byte 8: {exc}") from None
        # sized from the header alone: the layout grows with depth, so it is
        # built only once the file is known to hold that many parameters
        head = DecoderHead(config, read_array(fh, "<f8", param_count(config),
                                              "head parameters"))
        num_classes, dim = config.num_classes, config.dim
        counts = read_array(fh, "<u8", num_classes, "class counts")
        (tag,) = read_array(fh, "u1", 1, "calibrator tag")
        if tag > len(CALIBRATOR_VARIANTS):
            raise FormatError(f"unknown calibrator tag {tag} at byte {fh.tell() - 1}")
        calibrator = None
        if tag:
            variant = CALIBRATOR_VARIANTS[tag - 1]
            size = layout_size(calibrator_layout(variant, num_classes, dim))
            calibrator = Calibrator(variant, num_classes, dim, read_array(
                fh, "<f8", size, f"{variant} parameters"))
        expect_end(fh)

    return head, stats_from_counts(counts), calibrator
