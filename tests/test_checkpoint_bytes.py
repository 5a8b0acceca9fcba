"""Checkpoint bytes: pinned across commits, and malformed files rejected.

The round-trip tests compare a run with itself, so they cannot see a change
to the parameter layout or to the arithmetic. The hashes below were taken
from the code before the head's parameters moved into one flat vector. Like
every bit-exact guarantee of the library they hold per machine and BLAS
kernel; on another kernel, recompute them from a known-good commit.
"""

import hashlib
import struct

import numpy as np
import pytest

from lthead import (DecoderConfig, FormatError, SyntheticSpec, TrainConfig,
                    build_class_stats, evaluate, generate_synthetic_lt,
                    init_calibrator, init_decoder, load_checkpoint, make_rng,
                    save_checkpoint, train_stage1, train_stage2)
from lthead.training import report_json

# variant -> sha256 of (checkpoint bytes, report_json, stage-one and
# stage-two loss logs)
GOLDEN = {
    None: ("7d43a06f796ba794d0dd220edb919e824d7dcd432a26600d91022d9c8b759751",
           "1b0437e4e510f2432b44e641ad1b45c06cf401d40e544303c770f94867e006e1",
           "518cf33a15055e4df88bd17c3c7ecf3af166b197564950017f6ad609cb16f41d"),
    "crt": ("5be111e10620b50141cf26e8eb88a1d745885e74c3c787793d7af04cede4cd1e",
            "316b4093b0cb8b2b4146d7d514d8dc9678450608ad134003d64780a4a4d3edc2",
            "d5a54152df06d5c26aa5ec3ca03d96cdabd130c02267a1141e91658144132c12"),
    "lws": ("5c2a9717ecbaf89828278a85e15423a530a7302f1710417f3458a0b3690cebca",
            "cf7f261d8c82dca7783fdb30077ec92685e38f597f2c18bd91b9a91a1aca5356",
            "f2b0da9f665b84f92cd6e3a7e95aa56e355c85b91e5339030b908c33cc4185be"),
    "disalign": (
        "6f8494712beb06e7d13aef7449ba843563597c15e8be769f5eb2c3fb50be361c",
        "629c725656d427224321a0b5e9c9c65e9d40c7188e73f79676293622056c7bd1",
        "188e6a78f02d492462939d84026263f93118a53a8acbfc9dabe2fc4e256a728e"),
    "marc": ("2834e10dd75da1800b2348d89053f698d70d22f6debd08411ca30f048ef03420",
             "d51d6b9c0e4302966617387dffd4a7cc24b63977b52c00d12949701d93064985",
             "d3ecad9af56105d439d49d9f441a73613d62a933b52c83653bd5f893abb2209f"),
}

# sha256 of the parameter vector and loss log after a 4-iteration lade stage
# one at B=64, T=8, D=64, depth 2, dropout 0.5. Its (64, 8, 256) hidden
# activations span 8 of numerics' GELU tiles and its (512, 64) layer-norm
# inputs 2, so the pin covers tiled kernels across several tiles. Taken from
# the untiled code.
MULTI_TILE = "e8a217539dc5d42ea8b20eb936acbe14a7c81528c9289320ee9464db2eb1b30f"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def trained():
    spec = SyntheticSpec(num_classes=3, head_count=24, imbalance_ratio=4.0,
                         dim=8, tokens=2, separation=1.5, test_per_class=5,
                         seed=17)
    train, test = generate_synthetic_lt(spec)
    cfg = TrainConfig(seed=3, total_iters=12, batch_size=8, warmup_iters=2,
                      loss="bsm", stage2_iters=8)
    dc = DecoderConfig(dim=8, num_classes=3, depth=2, heads=2, dropout=0.5)
    head, log = train_stage1(train, cfg, dc, make_rng(cfg.seed))
    return train, test, cfg, head, log


@pytest.mark.parametrize("variant", list(GOLDEN))
def test_bytes_match_pinned_hashes(trained, variant, tmp_path):
    train, test, cfg, head, log1 = trained
    cal, log2 = None, np.empty(0)
    if variant is not None:
        cal, log2 = train_stage2(head, train, cfg, variant, make_rng(4))
    stats = build_class_stats(train.labels, 3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, head, stats.counts, calibrator=cal)
    report = report_json(evaluate(head, cal, test, stats))
    got = (sha(path.read_bytes()), sha(report.encode()),
           sha(log1.tobytes() + log2.tobytes()))
    assert got == GOLDEN[variant]


def test_multi_tile_stage_one_matches_pinned_hash():
    spec = SyntheticSpec(num_classes=5, head_count=64, imbalance_ratio=8.0,
                         dim=64, tokens=8, separation=1.5, test_per_class=4,
                         seed=23)
    train, _ = generate_synthetic_lt(spec)
    cfg = TrainConfig(seed=5, total_iters=4, batch_size=64, warmup_iters=1,
                      loss="lade")
    dc = DecoderConfig(dim=64, num_classes=5, depth=2, heads=4, dropout=0.5)
    head, log = train_stage1(train, cfg, dc, make_rng(cfg.seed))
    assert sha(head.params.vector.tobytes() + log.tobytes()) == MULTI_TILE


def test_every_truncated_prefix_rejected(tmp_path):
    dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2)
    head = init_decoder(dc, make_rng(0))
    cal = init_calibrator("disalign", 3, 8, make_rng(1))
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, head, np.array([5, 3, 1]), calibrator=cal)
    blob = path.read_bytes()
    assert len(blob) == 7257 + 8 * (3 + 3 + 8 + 1)
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(FormatError):
            load_checkpoint(cut)


@pytest.mark.parametrize("offset, field, match", [
    (12, struct.pack("<I", 0), "bad config at byte 8"),         # heads = 0
    (24, struct.pack("<d", 1.5), "bad config at byte 8"),       # dropout = 1.5
    (-1, struct.pack("<B", 5), "unknown calibrator tag 5"),     # last tag + 1
], ids=["heads_0", "dropout_1.5", "tag_5"])
def test_invalid_header_field_rejected(tmp_path, offset, field, match):
    dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_decoder(dc, make_rng(0)), np.array([5, 3, 1]))
    blob = bytearray(path.read_bytes())
    start = offset % len(blob)  # -1 is the calibrator tag, the last byte
    blob[start:start + len(field)] = field
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=match):
        load_checkpoint(path)


def test_oversized_header_rejected(tmp_path):
    # depth 1 at dim 2^20 claims about 24 TiB of parameters
    path = tmp_path / "huge.ckpt"
    path.write_bytes(struct.pack("<4sIIIddII", b"LTFH", 1, 1, 4, 4.0, 0.5,
                                 2 ** 20, 2))
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)
