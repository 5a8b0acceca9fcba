import dataclasses
import math
import struct

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats as scipy_stats

from lthead import (CLASS_BALANCED, INSTANCE_BALANCED, ConfigError, DataError,
                    FeatureDataset, FormatError, SyntheticSpec,
                    build_class_stats, exponential_profile,
                    generate_synthetic_lt, load_features, load_text_table,
                    make_rng, read_text_rows, sample_batch, save_features)


class TestExponentialProfile:
    def test_profile_arithmetic(self):
        npt.assert_array_equal(exponential_profile(100, 100.0, 3), [100, 10, 1])

    def test_balanced_degenerate(self):
        npt.assert_array_equal(exponential_profile(64, 1.0, 5), [64] * 5)

    def test_single_class_is_head_count(self):
        counts = exponential_profile(7, 3.0, 1)
        assert counts.dtype == np.int64
        npt.assert_array_equal(counts, [7])

    def test_endpoints(self):
        counts = exponential_profile(500, 100.0, 50)
        assert counts[0] == 500
        assert counts[-1] == round(500 / 100)

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            exponential_profile(3, 10.0, 5)  # tail rounds to zero


class TestSyntheticGeneration:
    def test_counts_follow_profile(self):
        spec = SyntheticSpec(num_classes=4, head_count=40, imbalance_ratio=8.0,
                             dim=3, seed=1)
        train, _ = generate_synthetic_lt(spec)
        counts = np.bincount(train.labels, minlength=4)
        npt.assert_array_equal(counts, exponential_profile(40, 8.0, 4))

    def test_test_set_class_balanced(self):
        spec = SyntheticSpec(num_classes=5, head_count=30, imbalance_ratio=6.0,
                             dim=4, test_per_class=7, seed=2)
        _, test = generate_synthetic_lt(spec)
        npt.assert_array_equal(np.bincount(test.labels, minlength=5), [7] * 5)
        assert test.role == "test"

    def test_empirical_means_near_spec_means(self):
        # sample-mean oracle: class means within 3 sigma of the true means
        from lthead.data import synthetic_class_means
        spec = SyntheticSpec(num_classes=3, head_count=4000, imbalance_ratio=1.0,
                             dim=6, separation=2.0, noise=0.5, seed=3)
        train, _ = generate_synthetic_lt(spec)
        means = synthetic_class_means(spec)
        for j in range(3):
            feats = train.features[train.labels == j, 0, :]
            tol = 3 * 0.5 / math.sqrt(feats.shape[0])
            assert np.all(np.abs(feats.mean(axis=0) - means[j]) < tol)

    def test_seed_determinism(self):
        spec = SyntheticSpec(num_classes=3, head_count=20, imbalance_ratio=4.0,
                             dim=2, seed=9)
        a_train, a_test = generate_synthetic_lt(spec)
        b_train, b_test = generate_synthetic_lt(spec)
        npt.assert_array_equal(a_train.features, b_train.features)
        npt.assert_array_equal(a_test.features, b_test.features)

    def test_train_test_draws_disjoint(self):
        spec = SyntheticSpec(num_classes=2, head_count=50, imbalance_ratio=1.0,
                             dim=4, test_per_class=50, seed=4)
        train, test = generate_synthetic_lt(spec)
        # same class means, independent noise: no shared feature rows
        shared = set(map(tuple, train.features[:, 0, :2])) & \
            set(map(tuple, test.features[:, 0, :2]))
        assert not shared

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(num_classes=2, head_count=3, imbalance_ratio=5.0, dim=2)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = SyntheticSpec(num_classes=3, head_count=12, imbalance_ratio=3.0,
                             dim=5, tokens=2, seed=5)
        train, _ = generate_synthetic_lt(spec)
        path = tmp_path / "feats.bin"
        save_features(train, path)
        loaded = load_features(path)
        npt.assert_array_equal(loaded.features, train.features)
        npt.assert_array_equal(loaded.labels, train.labels)
        assert loaded.num_classes == train.num_classes
        assert loaded.role == train.role
        # byte-level idempotence
        path2 = tmp_path / "feats2.bin"
        save_features(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        spec = SyntheticSpec(num_classes=2, head_count=6, imbalance_ratio=2.0,
                             dim=3, seed=6)
        train, _ = generate_synthetic_lt(spec)
        path = tmp_path / "feats.bin"
        save_features(train, path)
        blob = path.read_bytes()
        bad = tmp_path / "cut.bin"
        bad.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(FormatError, match="byte"):
            load_features(bad)

    def test_every_truncated_prefix_rejected(self, tmp_path):
        spec = SyntheticSpec(num_classes=2, head_count=6, imbalance_ratio=2.0,
                             dim=2, tokens=2, seed=6)
        train, _ = generate_synthetic_lt(spec)
        path = tmp_path / "feats.bin"
        save_features(train, path)
        blob = path.read_bytes()
        assert len(blob) == 29 + 9 * (4 + 8 * 2 * 2)
        cut = tmp_path / "cut.bin"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(FormatError):
                load_features(cut)

    def test_oversized_header_rejected(self, tmp_path):
        # N = 2^33 claims 32 GiB of labels; the file ends after the header
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack("<4sIQIIIB", b"IMBF", 1, 2 ** 33, 1, 4, 2, 0))
        with pytest.raises(FormatError, match="truncated"):
            load_features(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNK" + b"\0" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        spec = SyntheticSpec(num_classes=2, head_count=4, imbalance_ratio=1.0,
                             dim=2, seed=7)
        train, _ = generate_synthetic_lt(spec)
        path = tmp_path / "feats.bin"
        save_features(train, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_features(path)

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = FeatureDataset(features=np.zeros((0, 1, 4)),
                            labels=np.zeros(0, dtype=np.int64),
                            num_classes=3, role="train")
        path = tmp_path / "empty.bin"
        save_features(ds, path)
        loaded = load_features(path)
        assert loaded.num_samples == 0
        assert loaded.dim == 4
        assert loaded.num_classes == 3

    def test_text_table(self, tmp_path):
        path = tmp_path / "fixture.txt"
        path.write_text("# comment\n0, 1.5, -2.0\n1, 0.25, 4.0\n0, 3.0, 0.0\n")
        ds = load_text_table(path)
        assert ds.num_samples == 3 and ds.dim == 2 and ds.tokens_per_sample == 1
        npt.assert_array_equal(ds.labels, [0, 1, 0])
        npt.assert_array_equal(ds.features[1, 0], [0.25, 4.0])

    def test_text_table_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0, 1.0, 2.0\n1, 3.0\n")
        with pytest.raises(FormatError, match="expected 2 values"):
            load_text_table(path)

    def test_matrix_text(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("1.0, 0.0\n0.0, 1.0\n")
        npt.assert_array_equal(read_text_rows(path)[1], np.eye(2))


class TestSamplers:
    @staticmethod
    def _dataset(counts):
        labels = np.repeat(np.arange(len(counts)), counts)
        feats = np.zeros((labels.size, 1, 2))
        return FeatureDataset(features=feats, labels=labels,
                              num_classes=len(counts), role="train")

    def test_class_balanced_marginal(self):
        ds = self._dataset([3, 1])
        idx = sample_batch(ds, CLASS_BALANCED, 20000, make_rng(0))
        freq0 = np.mean(ds.labels[idx] == 0)
        sigma = math.sqrt(0.25 / 20000)
        assert abs(freq0 - 0.5) < 3 * sigma

    def test_instance_balanced_marginal(self):
        ds = self._dataset([3, 1])
        idx = sample_batch(ds, INSTANCE_BALANCED, 20000, make_rng(1))
        freq0 = np.mean(ds.labels[idx] == 0)
        sigma = math.sqrt(0.75 * 0.25 / 20000)
        assert abs(freq0 - 0.75) < 3 * sigma

    def test_single_draw_reproducible(self):
        ds = self._dataset([4, 2, 1])
        a = sample_batch(ds, CLASS_BALANCED, 1, make_rng(7))
        b = sample_batch(ds, CLASS_BALANCED, 1, make_rng(7))
        npt.assert_array_equal(a, b)
        assert a.shape == (1,)

    def test_chi_square_marginals(self):
        # marginal over classes: uniform for class-balanced, prior for instance
        counts = [40, 25, 10, 5]
        ds = self._dataset(counts)
        stats = build_class_stats(ds.labels, 4)
        n = 10 ** 5
        crit = scipy_stats.chi2.ppf(0.99, df=3)

        idx = sample_batch(ds, CLASS_BALANCED, n, make_rng(2))
        observed = np.bincount(ds.labels[idx], minlength=4)
        chi2 = np.sum((observed - n / 4) ** 2 / (n / 4))
        assert chi2 < crit

        idx = sample_batch(ds, INSTANCE_BALANCED, n, make_rng(3))
        observed = np.bincount(ds.labels[idx], minlength=4)
        expected = n * stats.priors
        chi2 = np.sum((observed - expected) ** 2 / expected)
        assert chi2 < crit

    def test_empty_dataset_rejected(self):
        ds = FeatureDataset(features=np.zeros((0, 1, 2)),
                            labels=np.zeros(0, dtype=np.int64), num_classes=2)
        with pytest.raises(DataError):
            sample_batch(ds, INSTANCE_BALANCED, 4, make_rng(0))

    def test_class_balanced_needs_nonempty_classes(self):
        ds = self._dataset([4, 0])  # class 1 empty
        with pytest.raises(DataError):
            sample_batch(ds, CLASS_BALANCED, 4, make_rng(0))

    def test_class_balanced_reads_the_datasets_own_counts(self):
        # no caller-supplied class statistics can skew the draw any more
        ds = self._dataset([1, 9])
        draws = 2000
        idx = sample_batch(ds, CLASS_BALANCED, draws, make_rng(11))
        hits = np.sum(ds.labels[idx] == 0)
        assert abs(hits - draws / 2) < 3 * math.sqrt(0.25 * draws)

    def test_class_balanced_draw_sequence(self):
        # a uniform class, then a uniform rank among that class's samples in
        # dataset order: the draws that every class-balanced golden run pins
        labels = make_rng(4).permutation(np.repeat(np.arange(3), [5, 2, 4]))
        ds = FeatureDataset(features=np.zeros((11, 1, 2)), labels=labels,
                            num_classes=3)
        rng = make_rng(8)
        classes = rng.integers(0, 3, size=64)
        within = rng.integers(0, np.array([5, 2, 4])[classes])
        want = [np.flatnonzero(labels == c)[w] for c, w in zip(classes, within)]
        npt.assert_array_equal(
            sample_batch(ds, CLASS_BALANCED, 64, make_rng(8)), want)


class TestFeatureDataset:
    def test_frozen_and_class_layout_cached(self):
        labels = make_rng(5).permutation(np.repeat(np.arange(4), [6, 3, 1, 2]))
        ds = FeatureDataset(features=np.zeros((12, 1, 2)), labels=labels,
                            num_classes=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.labels = np.zeros(12, dtype=np.int64)
        npt.assert_array_equal(ds.class_counts, np.bincount(labels, minlength=5))
        order, starts = ds.class_index
        npt.assert_array_equal(order, np.argsort(labels, kind="stable"))
        npt.assert_array_equal(starts, [0, 6, 9, 10, 12])
        assert ds.class_counts is ds.class_counts
        assert ds.class_index is ds.class_index

    @pytest.mark.parametrize("counts", [[1], [0, 3], [3, 0], [2, 0, 1], [0, 0]])
    def test_class_layout(self, counts):
        labels = make_rng(sum(counts)).permutation(
            np.repeat(np.arange(len(counts)), counts))
        ds = FeatureDataset(features=np.zeros((labels.size, 1, 2)),
                            labels=labels, num_classes=len(counts))
        npt.assert_array_equal(ds.class_counts, counts)
        order, starts = ds.class_index
        npt.assert_array_equal(starts, np.cumsum([0] + counts[:-1]))
        for c, (start, n) in enumerate(zip(starts, counts)):
            npt.assert_array_equal(order[start:start + n],
                                   np.flatnonzero(labels == c))

    def test_label_range_enforced(self):
        with pytest.raises(DataError):
            FeatureDataset(features=np.zeros((2, 1, 2)),
                           labels=np.array([0, 5]), num_classes=2)

    def test_nan_features_rejected(self):
        feats = np.zeros((1, 1, 2))
        feats[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            FeatureDataset(features=feats, labels=np.array([0]), num_classes=1)
