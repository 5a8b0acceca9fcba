"""The binary file layer that feature files and checkpoints share.

Both formats go through `data.read_header`, `read_array` and
`write_binary`: the magic is checked before anything else, every array is
read in place into a writable array, and saving writes each array without a
bytes copy, so tracemalloc sees almost nothing beyond what a load returns.
"""

import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from lthead import (DataError, DecoderConfig, FeatureDataset, FormatError,
                    exponential_profile, init_calibrator, init_decoder,
                    load_checkpoint, load_features, make_rng, save_checkpoint,
                    save_features)

# large enough that the arrays, not the fixed costs, set every peak
K, D = 4096, 64


def traced_peak(fn):
    """(tracemalloc peak while `fn` runs, what `fn` returned)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture(scope="module")
def model():
    head = init_decoder(DecoderConfig(dim=D, num_classes=K, depth=1, heads=2),
                        make_rng(0))
    return head, exponential_profile(500, 100.0, K), init_calibrator(
        "crt", K, D, make_rng(1))


@pytest.fixture(scope="module")
def dataset():
    rng = make_rng(2)
    return FeatureDataset(features=rng.standard_normal((2000, 2, D)),
                          labels=rng.integers(0, 7, size=2000), num_classes=7)


def small_files(root):
    """A feature file and a checkpoint with a calibrator, and their loaders."""
    ds = FeatureDataset(features=np.ones((5, 2, 3)), labels=[0, 1, 2, 0, 1],
                        num_classes=3)
    save_features(ds, root / "data.train")
    dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2)
    save_checkpoint(root / "model.ckpt", init_decoder(dc, make_rng(0)),
                    np.array([5, 3, 1]),
                    calibrator=init_calibrator("marc", 3, 8, make_rng(1)))
    return [(root / "data.train", load_features),
            (root / "model.ckpt", load_checkpoint)]


class TestPeakMemory:
    def test_save_features_copies_nothing(self, tmp_path, dataset):
        path = tmp_path / "data.train"
        peak, _ = traced_peak(lambda: save_features(dataset, path))
        assert peak < 0.05 * path.stat().st_size

    def test_save_checkpoint_copies_nothing(self, tmp_path, model):
        head, counts, cal = model
        path = tmp_path / "model.ckpt"
        peak, _ = traced_peak(lambda: save_checkpoint(path, head, counts, cal))
        assert peak < 0.05 * path.stat().st_size

    def test_load_checkpoint_holds_only_what_it_returns(self, tmp_path, model):
        head, counts, cal = model
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, head, counts, cal)
        peak, (head2, stats, cal2) = traced_peak(lambda: load_checkpoint(path))
        returned = sum(a.nbytes for a in (head2.params.vector, cal2.params.vector,
                                          stats.counts, stats.priors,
                                          stats.groups))
        assert peak <= 1.1 * returned


def test_loaded_arrays_are_writable(tmp_path, model, dataset):
    head, counts, cal = model
    save_features(dataset, tmp_path / "data.train")
    save_checkpoint(tmp_path / "model.ckpt", head, counts, cal)
    ds = load_features(tmp_path / "data.train")
    head2, _, cal2 = load_checkpoint(tmp_path / "model.ckpt")
    for array in (ds.features, ds.labels, head2.params.vector,
                  head2.cls_weight, cal2.params.vector):
        assert array.flags.writeable
    head2.cls_bias += 1.0
    np.testing.assert_array_equal(head2.cls_bias, head.cls_bias + 1.0)


@pytest.mark.parametrize("blob", [b"", b"P", b"PK\x03\x04", b"GIF89a",
                                  b"\x89PNG\r\n\x1a\n" + b"\0" * 20],
                         ids=["empty", "1_byte", "zip", "gif", "png"])
def test_short_foreign_file_is_bad_magic(tmp_path, blob):
    path = tmp_path / "foreign.bin"
    path.write_bytes(blob)
    message = re.escape(f"bad magic {blob[:4]!r} at byte 0")
    for load in (load_features, load_checkpoint):
        with pytest.raises(FormatError, match=message):
            load(path)


def test_file_shrinking_while_read_rejected(tmp_path, monkeypatch):
    # os.fstat overstates the size, as it would for a file cut after the
    # size check, so the last array's read comes up short
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(
        st_size=real_fstat(fd).st_size + 64))
    for path, load in small_files(tmp_path):
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="shrank while being read"):
            load(path)


@pytest.mark.parametrize("counts", [[1.5, 2, 3], [np.nan, 2, 3], [np.inf, 2, 3],
                                    [2.0 ** 63, 2, 3]],
                         ids=["fraction", "nan", "inf", "beyond_int64"])
def test_save_checkpoint_rejects_counts_that_are_not_whole(tmp_path, counts):
    dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2)
    path = tmp_path / "model.ckpt"
    with pytest.raises(DataError, match="whole numbers"):
        save_checkpoint(path, init_decoder(dc, make_rng(0)), counts)
    assert not path.exists()
