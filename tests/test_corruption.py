"""Corrupted binary files: every one loads or raises DataError.

Each example XORs a few bytes of a small valid file, half of them in the
header, where a flipped bit can claim a huge depth, width or sample count.
Whatever the result, loading may not allocate what the header claims: the
tracemalloc peak stays under a bound far below any such claim.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lthead import (DataError, DecoderConfig, SyntheticSpec, generate_synthetic_lt,
                    init_calibrator, init_decoder, load_checkpoint,
                    load_features, make_rng, save_checkpoint, save_features)

# Loading the valid files below peaks at about 20 KB. A header that claims
# 20,000 blocks at D=8 would take about 48 MB for the layout alone.
PEAK_BOUND = 2 ** 20


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corrupt")
    dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2)
    ckpt = root / "model.ckpt"
    save_checkpoint(ckpt, init_decoder(dc, make_rng(0)), np.array([5, 3, 1]),
                    calibrator=init_calibrator("disalign", 3, 8, make_rng(1)))
    train, _ = generate_synthetic_lt(SyntheticSpec(
        num_classes=3, head_count=6, imbalance_ratio=3.0, dim=4, tokens=2,
        test_per_class=0))
    feats = root / "data.train"
    save_features(train, feats)
    return {"checkpoint": (ckpt, load_checkpoint),
            "features": (feats, load_features)}


def edits(header_bytes: int):
    """One to eight (offset, nonzero XOR mask) pairs.

    Half the offsets fall in the header; the rest are taken modulo the
    file's length, so they can land anywhere.
    """
    offset = st.one_of(st.integers(0, header_bytes - 1), st.integers(0, 2 ** 16))
    return st.lists(st.tuples(offset, st.integers(1, 255)), min_size=1,
                    max_size=8)


def corrupt_and_load(path, load, changes, out) -> int:
    """Write `path` with `changes` applied to `out`, load it, return the peak."""
    blob = bytearray(path.read_bytes())
    for offset, mask in changes:
        blob[offset % len(blob)] ^= mask
    out.write_bytes(bytes(blob))
    tracemalloc.start()
    try:
        load(out)
    except DataError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


# header sizes: the checkpoint's magic to num_classes is 40 bytes, the
# feature file's magic to role 29
@settings(derandomize=True, deadline=None, max_examples=300)
@given(edits(40))
def test_corrupted_checkpoint_loads_or_raises(files, changes):
    path, load = files["checkpoint"]
    assert corrupt_and_load(path, load, changes, path.with_suffix(".bad")) < PEAK_BOUND


@settings(derandomize=True, deadline=None, max_examples=300)
@given(edits(29))
def test_corrupted_feature_file_loads_or_raises(files, changes):
    path, load = files["features"]
    assert corrupt_and_load(path, load, changes, path.with_suffix(".bad")) < PEAK_BOUND
