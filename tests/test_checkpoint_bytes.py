"""Checkpoint bytes: pinned across commits, and malformed files rejected.

The round-trip tests compare a run with itself, so they cannot see a change
to the parameter layout or to the arithmetic. The hashes below were taken
from the code before the head's parameters moved into one flat vector. Like
every bit-exact guarantee of the library they hold per machine and BLAS
kernel; on another kernel, recompute them from a known-good commit.
"""

import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lthead import (DataError, DecoderConfig, FormatError, SyntheticSpec, TrainConfig,
                    build_class_stats, evaluate, generate_synthetic_lt,
                    init_calibrator, init_decoder, load_checkpoint, make_rng,
                    save_checkpoint, train_stage1, train_stage2)
from lthead.training import EVAL_CHUNK, report_json

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

# variant -> sha256 of the calibrator vector, stage-two loss log and
# report_json after a 6-iteration stage two at B=64 on 1,324 train rows and
# an evaluate on 1,120 test rows. Both sets span three EVAL_CHUNKs (GOLDEN's
# fit in one), so the pin covers stage two's batch logits and evaluate's
# per-chunk calibration and argmax. Taken from the code that held the whole
# (N, K) logit matrix.
MULTI_CHUNK = {
    None: "d63798d8c99e12ab4b7a9f4dff9ac92add19b44dfb91a7770e5f48edcf85e5a9",
    "crt": "5b5e2e41d6bd738596ece9dd8064e4b6ed67ba6059d51090b13f6b8e7a245adc",
    "lws": "f07240de2df30b63ed2f6ddc5c0812b88201ed8caf75a65495c8e431a3a2e0a1",
    "disalign": "18b731305d0e48f0e0af04aa039689b0a0f2f7cf37d3707be4a3957f95f4bd0a",
    "marc": "33a0717caafdde67216c3cc9fb53f5685b0ef216eada399049c6f6ecb7ca3d90",
}

# variant -> sha256 of (calibrated checkpoint bytes, report_json, stage-one
# and stage-two loss logs) after a 6-iteration lade stage one and a
# 6-iteration stage two at K=200, D=16, B=128, run in a child at one BLAS
# thread. Its (128, 200) logit and (200, 16) weight-gradient GEMMs are sizes
# that GOLDEN's K=3 never reaches. Taken from the code whose calibrator
# backward also formed input gradients and whose lade loss checked its batch
# twice per call.
WIDE_K = {
    "crt": (
        "d8f07fbdcd2c3be81c432b7cf69eeea2134978819bbbab3beea5312ecdd582b7",
        "769bc31ee18facbe7a040f32ec603c4cfe1f250e29fa1dd6ff1cd84c4b6a2276",
        "8e84901935ab2d4579c6e1bea62ea82ab0de621dfe17406c86c1854a3d7084fe"),
    "lws": (
        "e86217056b8620b36cdec08c035b1e51babb892963e943bb038baabf7ce0d338",
        "af30f20bcf45264cd6e5c4007e4e52bbe1abf120b3ecedc180eaccbcfae9c57c",
        "5c5cf8e1a420e9e93c1429399d28cc461c042d66a00b1f292f7ef573a3122c44"),
    "disalign": (
        "15960129f916817e70b6fd0c5412587f83e7c90ea8bebc3151d5e0875427ecee",
        "f9b27ade1351740fe3433c5c19728a05aceaf76a272bf1f77183158a09ed0a62",
        "37de28d292829a62b6b239722c31fcb0c6e65d70ad0036aeaa9ced2fb196849d"),
    "marc": (
        "7ced680ee8bc85d3503f7c2fd7f352a28435a6bebe11d19d1a3a845acc8b00fc",
        "4affa1f5582af65310554226e52602f8f19cf5d058c3c987b5ba67ff42c8a82f",
        "c407b5819b3ebca06f11f364c69c3fa1897896756d30198a8724b33215e1a400"),
}

WIDE_K_RUN = """
import hashlib
import sys
from pathlib import Path
from lthead import (CALIBRATOR_VARIANTS, DecoderConfig, SyntheticSpec,
                    TrainConfig, build_class_stats, evaluate,
                    generate_synthetic_lt, make_rng, save_checkpoint,
                    train_stage1, train_stage2)
from lthead.training import report_json
k = 200
spec = SyntheticSpec(num_classes=k, head_count=20, imbalance_ratio=10.0,
                     dim=16, tokens=2, separation=2.0, test_per_class=3, seed=31)
train, test = generate_synthetic_lt(spec)
cfg = TrainConfig(seed=9, total_iters=6, batch_size=128, warmup_iters=2,
                  loss="lade", stage2_iters=6)
dc = DecoderConfig(dim=16, num_classes=k, depth=1, heads=2, dropout=0.5)
head, log1 = train_stage1(train, cfg, dc, make_rng(cfg.seed))
stats = build_class_stats(train.labels, k)
path = Path(sys.argv[1], "model.ckpt")
for variant in CALIBRATOR_VARIANTS:
    cal, log2 = train_stage2(head, train, cfg, variant, make_rng(10))
    save_checkpoint(path, head, stats.counts, calibrator=cal)
    report = report_json(evaluate(head, cal, test, stats))
    print(variant, *(hashlib.sha256(b).hexdigest() for b in
                     (path.read_bytes(), report.encode(), log1.tobytes() + log2.tobytes())))
"""


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


@pytest.mark.bits
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


@pytest.mark.bits
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


@pytest.fixture(scope="module")
def multi_chunk():
    spec = SyntheticSpec(num_classes=8, head_count=400, imbalance_ratio=10.0,
                         dim=16, tokens=2, separation=1.5, test_per_class=140,
                         seed=29)
    train, test = generate_synthetic_lt(spec)
    assert min(train.num_samples, test.num_samples) > 2 * EVAL_CHUNK
    cfg = TrainConfig(seed=7, total_iters=6, batch_size=64, warmup_iters=1,
                      loss="ce", stage2_iters=6)
    dc = DecoderConfig(dim=16, num_classes=8, depth=1, heads=2, dropout=0.5)
    head, _ = train_stage1(train, cfg, dc, make_rng(cfg.seed))
    return train, test, cfg, head


@pytest.mark.bits
@pytest.mark.parametrize("variant", list(MULTI_CHUNK))
def test_multi_chunk_stage_two_and_eval_match_pinned_hash(multi_chunk, variant):
    train, test, cfg, head = multi_chunk
    cal, blob = None, b""
    if variant is not None:
        cal, log2 = train_stage2(head, train, cfg, variant, make_rng(8))
        blob = cal.params.vector.tobytes() + log2.tobytes()
    report = report_json(evaluate(head, cal, test,
                                  build_class_stats(train.labels, 8)))
    assert sha(blob + report.encode()) == MULTI_CHUNK[variant]


@pytest.mark.bits
def test_wide_class_count_matches_pinned_hashes(tmp_path):
    # one BLAS thread, since at this K the thread count may change low bits
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", WIDE_K_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = {variant: tuple(hashes) for variant, *hashes in
           map(str.split, proc.stdout.splitlines())}
    assert got == WIDE_K


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


@pytest.mark.parametrize("counts, error, match", [
    (np.array([-1, 2, 3]), DataError, "nonnegative"),
    (np.array([-1, 2, 3]).astype(np.uint64), DataError, "nonnegative"),
    (np.zeros(3, dtype=np.int64), DataError, "positive total"),
    (np.full(3, 2 ** 62, dtype=np.uint64), DataError, "more than int64 holds"),
    (np.array([5, 3]), FormatError, "length must equal num_classes"),
], ids=["negative", "wrapped_u64", "all_zero", "total_beyond_int64", "short"])
def test_save_rejects_counts_load_would_reject(tmp_path, counts, error, match):
    dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2)
    path = tmp_path / "model.ckpt"
    with pytest.raises(error, match=match):
        save_checkpoint(path, init_decoder(dc, make_rng(0)), counts)
    assert not path.exists()


@pytest.mark.parametrize("num_classes, dim", [(4, 8), (3, 6)])
@pytest.mark.parametrize("variant", ["crt", "lws", "disalign", "marc"])
def test_save_rejects_calibrator_of_another_shape(tmp_path, variant,
                                                  num_classes, dim):
    dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2)
    cal = init_calibrator(variant, num_classes, dim, make_rng(1))
    path = tmp_path / "model.ckpt"
    with pytest.raises(FormatError, match=f"calibrator is for {num_classes} "
                                          f"classes at dim {dim}"):
        save_checkpoint(path, init_decoder(dc, make_rng(0)), np.array([5, 3, 1]),
                        calibrator=cal)
    assert not path.exists()


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


def test_huge_depth_rejected_before_building_layout(tmp_path):
    # The layout holds 12 entries per block; the size check must come first.
    path = tmp_path / "deep.ckpt"
    dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2)
    save_checkpoint(path, init_decoder(dc, make_rng(0)), np.array([5, 3, 1]))
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", 20000)
    path.write_bytes(bytes(blob))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_oversized_header_rejected(tmp_path):
    # depth 1 at dim 2^20 claims about 24 TiB of parameters
    path = tmp_path / "huge.ckpt"
    path.write_bytes(struct.pack("<4sIIIddII", b"LTFH", 1, 1, 4, 4.0, 0.5,
                                 2 ** 20, 2))
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)
