import dataclasses
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from lthead import (ConfigError, DataError, DomainError, bsm_biases, build_class_stats,
                    cbw_weights, finite_diff_check, lade_dv_regularizer,
                    ldam_margins, make_loss_spec, make_rng,
                    softmax_rows, stats_from_counts, total_loss)
from lthead.losses import VARIANTS
from lthead.numerics import logsumexp_rows

LN2 = math.log(2.0)


def stats_for(counts):
    return stats_from_counts(np.asarray(counts, dtype=np.int64))


class TestClassStats:
    def test_group_thresholds(self):
        stats = stats_for([150, 100, 20, 19])
        assert list(stats.groups) == ["many", "medium", "medium", "few"]

    def test_uniform_priors(self):
        stats = build_class_stats(np.repeat(np.arange(4), 25), 4)
        npt.assert_allclose(stats.priors, 0.25, rtol=0, atol=1e-15)

    def test_priors_sum_to_one(self):
        rng = make_rng(0)
        labels = rng.integers(0, 13, size=999)
        stats = build_class_stats(np.concatenate([labels, np.arange(13)]), 13)
        assert abs(stats.priors.sum() - 1.0) < 1e-12

    def test_counts_match_histogram_oracle(self):
        rng = make_rng(1)
        labels = rng.integers(0, 7, size=10 ** 4)
        stats = build_class_stats(labels, 7)
        oracle = [0] * 7
        for lab in labels:
            oracle[lab] += 1
        npt.assert_array_equal(stats.counts, oracle)

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            build_class_stats(np.array([0, 5]), 3)

    def test_total_beyond_int64_rejected(self):
        # each count fits in int64, but their int64 sum wraps to -2**62
        with pytest.raises(DataError, match="int64"):
            stats_for([2 ** 62] * 3)

    def test_total_at_int64_max_accepted(self):
        stats = stats_for([2 ** 62, 2 ** 62 - 1])
        npt.assert_array_equal(stats.priors, [0.5, 0.5])

    @pytest.mark.parametrize("counts", [[1.5, 2, 3], [np.nan, 2, 3],
                                        [2, -np.inf, 3], [2, 3, 2.0 ** 63]])
    def test_counts_that_are_not_whole_rejected(self, counts):
        with pytest.raises(DataError, match="whole numbers"):
            stats_from_counts(counts)

    @pytest.mark.parametrize("big", [2 ** 70, -2 ** 70])
    def test_python_int_counts_beyond_int64_rejected(self, big):
        # an object array, whose int64 cast overflows
        with pytest.raises(DataError, match="whole numbers"):
            stats_from_counts([big, 1])

    def test_whole_float_counts_accepted(self):
        stats = stats_from_counts([4.0, 2.0, 2.0 ** 62])
        assert stats.counts.dtype == np.int64
        npt.assert_array_equal(stats.counts, [4, 2, 2 ** 62])


class TestCbwWeights:
    def test_balanced_counts(self):
        npt.assert_allclose(cbw_weights(stats_for([10, 10])), [1.0, 1.0],
                            rtol=0, atol=1e-15)

    def test_analytic(self):
        npt.assert_allclose(cbw_weights(stats_for([30, 10])), [0.5, 1.5],
                            rtol=0, atol=1e-15)

    def test_equal_expected_class_contribution(self):
        # summation oracle: total weight carried by each class is constant
        rng = make_rng(2)
        labels = np.concatenate([np.repeat(j, n) for j, n in
                                 enumerate([7, 19, 311, 64])])
        stats = build_class_stats(labels, 4)
        w = cbw_weights(stats)
        totals = [np.sum(w[labels[labels == j]]) for j in range(4)]
        npt.assert_allclose(totals, totals[0], rtol=1e-12)

    def test_mean_one(self):
        rng = make_rng(3)
        counts = rng.integers(1, 500, size=11)
        assert cbw_weights(stats_for(counts)).mean() == pytest.approx(1.0, abs=1e-12)

    def test_zero_count_rejected(self):
        with pytest.raises(DataError):
            cbw_weights(stats_for([3, 0]))


class TestBsmBiases:
    def test_log_counts(self):
        npt.assert_allclose(bsm_biases(stats_for([100, 1])),
                            [math.log(100), 0.0], rtol=0, atol=1e-15)

    def test_training_probability(self):
        stats = stats_for([100, 1])
        delta = bsm_biases(stats)
        probs = softmax_rows(np.zeros((1, 2)) + delta)
        npt.assert_allclose(probs, [[100 / 101, 1 / 101]], rtol=0, atol=1e-12)

    def test_equal_counts_reduce_to_ce(self):
        stats = stats_for([40, 40, 40])
        spec_bsm = make_loss_spec("bsm", stats)
        spec_ce = make_loss_spec("ce", stats)
        rng = make_rng(4)
        for _ in range(20):
            logits = rng.standard_normal((6, 3))
            labels = rng.integers(0, 3, size=6)
            vb, gb = total_loss(spec_bsm, logits, labels, stats)
            vc, gc = total_loss(spec_ce, logits, labels, stats)
            assert abs(vb - vc) < 1e-12
            npt.assert_allclose(gb, gc, rtol=0, atol=1e-12)


class TestLdamMargins:
    def test_fourth_root_arithmetic(self):
        # counts [16, 1] with the scale pinned to 1 by max_margin=1
        npt.assert_allclose(ldam_margins(stats_for([16, 1]), max_margin=1.0),
                            [0.5, 1.0], rtol=0, atol=1e-15)

    def test_zero_margin_reduces_to_ce(self):
        stats = stats_for([50, 5])
        spec = make_loss_spec("ldam", stats, max_margin=0.0)
        spec_ce = make_loss_spec("ce", stats)
        logits = make_rng(5).standard_normal((4, 2))
        labels = np.array([0, 1, 1, 0])
        v1, g1 = total_loss(spec, logits, labels, stats)
        v2, g2 = total_loss(spec_ce, logits, labels, stats)
        assert v1 == v2
        npt.assert_array_equal(g1, g2)

    def test_rarest_class_has_largest_margin(self):
        rng = make_rng(6)
        for _ in range(25):
            counts = rng.integers(1, 1000, size=9)
            margins = ldam_margins(stats_for(counts), 0.5)
            assert np.argmax(margins) == np.argmin(counts)
            assert margins.max() == pytest.approx(0.5, abs=1e-15)


class TestLossEval:
    def test_ce_analytic(self):
        stats = stats_for([1, 1])
        spec = make_loss_spec("ce", stats)
        value, dlogits = total_loss(spec, np.zeros((1, 2)), np.array([0]), stats)
        assert value == pytest.approx(LN2, abs=1e-12)
        npt.assert_allclose(dlogits, [[-0.5, 0.5]], rtol=0, atol=1e-12)

    def test_focal_analytic(self):
        stats = stats_for([1, 1])
        spec = make_loss_spec("focal", stats, gamma=2.0)
        value, _ = total_loss(spec, np.zeros((1, 2)), np.array([0]), stats)
        assert value == pytest.approx(0.25 * LN2, abs=1e-12)

    def test_focal_gamma_zero_equals_ce(self):
        stats = stats_for([17, 5, 88, 2, 41])
        spec_f = make_loss_spec("focal", stats, gamma=0.0)
        spec_c = make_loss_spec("ce", stats)
        rng = make_rng(7)
        for _ in range(100):
            logits = rng.standard_normal((8, 5)) * 3
            labels = rng.integers(0, 5, size=8)
            vf, gf = total_loss(spec_f, logits, labels, stats)
            vc, gc = total_loss(spec_c, logits, labels, stats)
            assert abs(vf - vc) < 1e-12
            npt.assert_allclose(gf, gc, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_focal_gradient_at_overflowed_true_class_equals_ce(self, gamma):
        # p_true is exactly 0 and ce is inf: focal's extra term must be 0
        stats = stats_for([1, 1])
        logits, labels = np.array([[1e308, -1e308]]), np.array([1])
        with np.errstate(over="ignore"):
            _, grad_f = total_loss(make_loss_spec("focal", stats, gamma=gamma),
                                   logits, labels, stats)
            _, grad_c = total_loss(make_loss_spec("ce", stats), logits, labels,
                                   stats)
        npt.assert_array_equal(grad_c, [[1.0, -1.0]])
        npt.assert_array_equal(grad_f, grad_c)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss variant 'hinge'"):
            make_loss_spec("hinge", stats_for([5, 5]))

    def test_label_out_of_range(self):
        stats = stats_for([5, 5])
        spec = make_loss_spec("ce", stats)
        with pytest.raises(DataError):
            total_loss(spec, np.zeros((1, 2)), np.array([2]), stats)

    @pytest.mark.parametrize("variant", ["ce", "cbw", "focal", "ldam", "bsm", "lade"])
    def test_gradient_matches_finite_differences(self, variant):
        stats = stats_for([120, 80, 15, 3, 55])
        spec = make_loss_spec(variant, stats)
        rng = make_rng(8)
        logits0 = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, size=6)

        def f(vec):
            value, dl = total_loss(spec, vec.reshape(6, 5), labels, stats)
            return value, dl.ravel()

        report = finite_diff_check(f, logits0.ravel(), tol=1e-5)
        assert report.passed, (variant, report)

    @pytest.mark.parametrize("variant", ["ce", "cbw", "focal", "ldam", "bsm", "lade"])
    def test_per_sample_shift_invariance(self, variant):
        # lam=0: the LADE regularizer is not shift-invariant per sample, so
        # the lade case checks its balanced-softmax part
        stats = stats_for([120, 80, 15, 3, 55])
        spec = make_loss_spec(variant, stats, lam=0.0)
        rng = make_rng(9)
        logits = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, size=6)
        shifts = rng.standard_normal((6, 1)) * 7
        v1, _ = total_loss(spec, logits, labels, stats)
        v2, _ = total_loss(spec, logits + shifts, labels, stats)
        assert abs(v1 - v2) < 1e-12

    @pytest.mark.parametrize("variant", ["ce", "cbw", "bsm", "ldam"])
    def test_gradient_rows_sum_to_zero(self, variant):
        stats = stats_for([120, 80, 15, 3, 55])
        spec = make_loss_spec(variant, stats)
        rng = make_rng(10)
        logits = rng.standard_normal((7, 5))
        labels = rng.integers(0, 5, size=7)
        _, dlogits = total_loss(spec, logits, labels, stats)
        npt.assert_allclose(dlogits.sum(axis=1), 0.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["cbw", "bsm", "lade"])
    def test_uniform_counts_reduce_to_ce(self, variant):
        # equal counts collapse the count-derived weights/biases onto CE
        # (LDAM keeps a uniform nonzero margin, focal differs by design)
        stats = stats_for([25, 25, 25, 25])
        spec = make_loss_spec(variant, stats, lam=0.0)
        spec_ce = make_loss_spec("ce", stats)
        rng = make_rng(11)
        for _ in range(20):
            logits = rng.standard_normal((5, 4))
            labels = rng.integers(0, 4, size=5)
            v1, _ = total_loss(spec, logits, labels, stats)
            v2, _ = total_loss(spec_ce, logits, labels, stats)
            assert abs(v1 - v2) < 1e-12

    @pytest.mark.parametrize("variant", ["ce", "cbw", "focal", "ldam", "bsm"])
    def test_true_logit_monotonicity(self, variant):
        stats = stats_for([120, 80, 15])
        spec = make_loss_spec(variant, stats)
        base = np.array([[0.3, -0.2, 0.9]])
        labels = np.array([1])
        values = []
        for bump in np.linspace(0.0, 4.0, 17):
            logits = base.copy()
            logits[0, 1] += bump
            value, _ = total_loss(spec, logits, labels, stats)
            values.append(value)
        assert all(a > b for a, b in zip(values, values[1:]))


def out_of_place_total_loss(spec, logits, labels, stats):
    """total_loss as it was before its single buffer: one array per step."""
    batch = logits.shape[0]
    rows = np.arange(batch)
    adjusted = logits + spec.biases
    if np.any(spec.margins > 0):
        adjusted[rows, labels] -= spec.margins[labels]
    logp = adjusted - logsumexp_rows(adjusted)
    probs = np.exp(logp)
    ce = -logp[rows, labels]
    grad_base = probs.copy()
    grad_base[rows, labels] -= 1.0
    if spec.variant == "focal":
        pt = probs[rows, labels]
        one_minus = 1.0 - pt
        mod = one_minus ** spec.gamma
        value = float(np.mean(mod * ce))
        if spec.gamma == 0.0:
            coef = np.ones(batch)
        else:
            safe_pow = np.zeros_like(one_minus)
            pos = one_minus > 0
            safe_pow[pos] = one_minus[pos] ** (spec.gamma - 1.0)
            coef = mod + spec.gamma * pt * ce * safe_pow
        dlogits = grad_base * coef[:, None] / batch
    else:
        w = spec.weights[labels]
        value = float(np.mean(w * ce))
        dlogits = grad_base * w[:, None] / batch
    if spec.variant == "lade":
        reg, dreg = lade_dv_regularizer(logits, labels, stats, spec.lam)
        value += reg
        dlogits += dreg
    return value, dlogits


class TestTotalLossBits:
    COUNTS = [300, 120, 80, 41, 15, 7, 3, 1]

    def assert_matches_reference(self, spec, logits, labels, stats):
        before = logits.copy()
        value, dlogits = total_loss(spec, logits, labels, stats)
        ref_value, ref_dlogits = out_of_place_total_loss(spec, logits, labels,
                                                         stats)
        npt.assert_array_equal(logits, before, strict=True)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        npt.assert_array_equal(dlogits, ref_dlogits, strict=True)
        assert dlogits.tobytes() == ref_dlogits.tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_bitwise(self, variant):
        stats = stats_for(self.COUNTS)
        spec = make_loss_spec(variant, stats)
        rng = make_rng(16)
        for scale in (1e-3, 1.0, 30.0):
            for batch in (1, 9, 64):
                logits = rng.standard_normal((batch, 8)) * scale
                labels = rng.integers(0, 8, size=batch)
                self.assert_matches_reference(spec, logits, labels, stats)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    def test_focal_bitwise_with_certain_row(self, gamma):
        stats = stats_for(self.COUNTS)
        spec = make_loss_spec("focal", stats, gamma=gamma)
        rng = make_rng(17)
        for _ in range(20):
            logits = rng.standard_normal((12, 8)) * 4
            labels = rng.integers(0, 8, size=12)
            # row 0's true class takes all the mass: p_true == 1 exactly
            logits[0] = -1000.0
            logits[0, labels[0]] = 0.0
            self.assert_matches_reference(spec, logits, labels, stats)
        _, dlogits = total_loss(spec, logits, labels, stats)
        assert np.all(np.isfinite(dlogits))
        npt.assert_array_equal(dlogits[0], 0.0)

    @pytest.mark.parametrize("variant, kwargs", [("ldam", {"max_margin": 0.0}),
                                                 ("focal", {"gamma": 0.0})])
    def test_reduction_to_ce_bitwise(self, variant, kwargs):
        # zero margins and gamma 0 run the general expressions, which must
        # give the reference's special-cased bits
        stats = stats_for(self.COUNTS)
        spec = make_loss_spec(variant, stats, **kwargs)
        rng = make_rng(19)
        for scale in (1e-3, 1.0, 30.0, 700.0):
            for batch in (1, 9, 64):
                logits = rng.standard_normal((batch, 8)) * scale
                logits[rng.random(logits.shape) < 0.2] = -0.0
                labels = rng.integers(0, 8, size=batch)
                self.assert_matches_reference(spec, logits, labels, stats)

    def test_zero_max_margin_is_positive_zeros(self):
        margins = ldam_margins(stats_for(self.COUNTS), 0.0)
        assert margins.dtype == np.float64
        assert margins.tobytes() == np.zeros(len(self.COUNTS)).tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_peak_memory_three_batch_arrays(variant):
    # the adjusted logits' buffer (returned as the gradient) plus the one
    # temporary of logsumexp_rows; lade's regularizer fits in the same room
    batch, k = 128, 4096
    rng = make_rng(18)
    stats = stats_from_counts(rng.integers(1, 1000, size=k))
    spec = make_loss_spec(variant, stats)
    logits = rng.standard_normal((batch, k)) * 3
    labels = rng.integers(0, k, size=batch)
    total_loss(spec, logits, labels, stats)
    tracemalloc.start()
    try:
        total_loss(spec, logits, labels, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * batch * k * 8, peak / (batch * k * 8)


@pytest.mark.parametrize("variant", VARIANTS)
def test_peak_memory_two_batch_arrays_but_lade(variant):
    # 3.25 above would pass a return to three arrays; only lade's column-wise
    # regularizer needs the third
    batch, k = 128, 4096
    rng = make_rng(18)
    stats = stats_from_counts(rng.integers(1, 1000, size=k))
    spec = make_loss_spec(variant, stats)
    logits = rng.standard_normal((batch, k)) * 3
    labels = rng.integers(0, k, size=batch)
    total_loss(spec, logits, labels, stats)
    tracemalloc.start()
    try:
        total_loss(spec, logits, labels, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 3.25 if variant == "lade" else 2.25
    assert peak <= bound * batch * k * 8, peak / (batch * k * 8)


def test_peak_memory_lade_reads_only_present_columns():
    # lade's regularizer forms only the batch's present columns of the
    # bias-removed logits, so the dense gradient it returns is its one
    # (B, K) array next to total_loss's own
    batch, k = 128, 4096
    rng = make_rng(18)
    stats = stats_from_counts(rng.integers(1, 1000, size=k))
    spec = make_loss_spec("lade", stats)
    logits = rng.standard_normal((batch, k)) * 3
    labels = rng.integers(0, k, size=batch)
    total_loss(spec, logits, labels, stats)
    tracemalloc.start()
    try:
        total_loss(spec, logits, labels, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * batch * k * 8, peak / (batch * k * 8)


class TestLossSpecValidation:
    STATS = stats_for([30, 10, 5])

    @pytest.mark.parametrize("field", ["weights", "biases", "margins"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, bad):
        spec = make_loss_spec("ce", self.STATS)
        vec = getattr(spec, field).copy()
        vec[1] = bad
        with pytest.raises(ConfigError, match="finite vectors of one length"):
            dataclasses.replace(spec, **{field: vec})

    @pytest.mark.parametrize("field", ["weights", "biases", "margins"])
    @pytest.mark.parametrize("shape", [(), (1,), (2,), (4,), (3, 1)])
    def test_wrong_shape_rejected(self, field, shape):
        spec = make_loss_spec("ce", self.STATS)
        vec = np.full(shape, 0.5)
        with pytest.raises(ConfigError, match="finite vectors of one length"):
            dataclasses.replace(spec, **{field: vec})

    def test_existing_messages_kept(self):
        spec = make_loss_spec("ce", self.STATS)
        with pytest.raises(ConfigError, match="loss weights must be positive"):
            dataclasses.replace(spec, weights=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ConfigError, match="margins must be nonnegative"):
            dataclasses.replace(spec, margins=np.array([0.0, -0.1, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("variant, field", [("focal", "gamma"),
                                                ("lade", "lam")])
    def test_non_finite_scalar_rejected(self, variant, field, bad):
        with pytest.raises(ConfigError, match="must be finite"):
            make_loss_spec(variant, self.STATS, **{field: bad})

    @pytest.mark.parametrize("bad", [-0.5, -np.inf])
    def test_negative_scalar_messages_kept(self, bad):
        with pytest.raises(ConfigError, match="^focal gamma must be >= 0$"):
            make_loss_spec("focal", self.STATS, gamma=bad)
        with pytest.raises(ConfigError, match="^lade lambda must be >= 0$"):
            make_loss_spec("lade", self.STATS, lam=bad)


class TestScalarDomains:
    STATS = stats_for([30, 10, 5])
    LOGITS = np.zeros((2, 3))
    LABELS = np.array([0, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_max_margin_rejected(self, bad):
        with pytest.raises(DomainError, match="max_margin must be finite"):
            ldam_margins(self.STATS, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lade_lambda_rejected(self, bad):
        with pytest.raises(DomainError, match="lade lambda must be finite"):
            lade_dv_regularizer(self.LOGITS, self.LABELS, self.STATS, bad)

    @pytest.mark.parametrize("bad", [-0.5, -np.inf])
    def test_negative_messages_kept(self, bad):
        with pytest.raises(DomainError, match="^max_margin must be >= 0$"):
            ldam_margins(self.STATS, bad)
        with pytest.raises(DomainError, match="^lade lambda must be >= 0$"):
            lade_dv_regularizer(self.LOGITS, self.LABELS, self.STATS, bad)


def loop_lade(logits, labels, stats, lam):
    """lade_dv_regularizer as a Python loop over the present classes."""
    dlogits = np.zeros_like(logits)
    f = logits - bsm_biases(stats)
    batch = logits.shape[0]
    present, members = np.unique(labels, return_counts=True)
    n_present = present.shape[0]
    terms = np.empty(n_present)
    for idx, (j, m_j) in enumerate(zip(present, members)):
        col = f[:, j]
        col_max = col.max()
        expcol = np.exp(col - col_max)
        terms[idx] = (-col[labels == j].mean()
                      + col_max + np.log(expcol.sum() / batch))
        soft = expcol / expcol.sum()
        dlogits[:, j] = lam / n_present * soft
        dlogits[labels == j, j] -= lam / (n_present * m_j)
    return float(lam * np.mean(terms)), dlogits


@st.composite
def lade_cases(draw):
    """Logits, labels drawn from a random subset of the classes, stats, lam."""
    k = draw(st.integers(1, 60))
    b = draw(st.integers(1, 300))
    used = draw(st.integers(1, k))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    labels = rng.permutation(k)[:used][rng.integers(0, used, size=b)]
    logits = rng.standard_normal((b, k)) * scale
    stats = stats_for(rng.integers(1, 500, size=k))
    return logits, labels, stats, draw(st.sampled_from([0.1, 0.7]))


class TestLadeRegularizer:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(lade_cases())
    def test_matches_loop_bitwise(self, case):
        logits, labels, stats, lam = case
        value, dlogits = lade_dv_regularizer(logits, labels, stats, lam)
        ref_value, ref_dlogits = loop_lade(logits, labels, stats, lam)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert dlogits.tobytes() == ref_dlogits.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(lade_cases(), st.integers(0, 59),
           st.floats(-50.0, 50.0, allow_nan=False))
    def test_single_column_shift_invariance(self, case, col, shift):
        logits, labels, stats, lam = case
        col %= logits.shape[1]
        shifted = logits.copy()
        shifted[:, col] += shift
        v1, _ = lade_dv_regularizer(logits, labels, stats, lam)
        v2, _ = lade_dv_regularizer(shifted, labels, stats, lam)
        scale = 1.0 + abs(shift) + np.abs(logits).max()
        assert v2 == pytest.approx(v1, rel=0, abs=1e-12 * scale)

    def test_total_loss_checks_the_batch_once(self, monkeypatch):
        import lthead.losses as losses_mod
        calls = []
        check = losses_mod._check_batch
        monkeypatch.setattr(losses_mod, "_check_batch",
                            lambda *args: calls.append(1) or check(*args))
        stats = stats_for([30, 10, 5])
        logits = make_rng(16).standard_normal((6, 3))
        labels = np.array([0, 1, 2, 0, 1, 0])
        value, grad = total_loss(make_loss_spec("lade", stats, lam=0.3),
                                 logits, labels, stats)
        assert len(calls) == 1
        # the public regularizer keeps its own check
        reg, dreg = lade_dv_regularizer(logits, labels, stats, lam=0.3)
        assert len(calls) == 2
        bsm, dbsm = total_loss(make_loss_spec("bsm", stats), logits, labels, stats)
        assert value == bsm + reg
        dbsm += dreg
        assert grad.tobytes() == dbsm.tobytes()

    def test_all_zero_logits(self):
        stats = stats_for([10, 10])
        value, dlogits = lade_dv_regularizer(
            np.zeros((4, 2)) + bsm_biases(stats), np.array([0, 0, 1, 1]), stats)
        assert value == 0.0

    def test_column_shift_cancellation(self):
        stats = stats_for([30, 10, 5])
        rng = make_rng(12)
        logits = rng.standard_normal((6, 3))
        labels = np.array([0, 1, 2, 0, 1, 0])
        v1, _ = lade_dv_regularizer(logits, labels, stats, lam=0.3)
        shifted = logits.copy()
        shifted[:, 1] += 4.2  # constant shift of one class column
        v2, _ = lade_dv_regularizer(shifted, labels, stats, lam=0.3)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_lambda_zero_equals_bsm(self):
        stats = stats_for([30, 10, 5])
        spec = make_loss_spec("lade", stats, lam=0.0)
        spec_bsm = make_loss_spec("bsm", stats)
        rng = make_rng(13)
        for _ in range(100):
            logits = rng.standard_normal((6, 3))
            labels = rng.integers(0, 3, size=6)
            v1, g1 = total_loss(spec, logits, labels, stats)
            v2, g2 = total_loss(spec_bsm, logits, labels, stats)
            assert abs(v1 - v2) < 1e-12
            npt.assert_allclose(g1, g2, rtol=0, atol=1e-12)

    def test_absent_classes_contribute_nothing(self):
        stats = stats_for([30, 10, 5])
        rng = make_rng(14)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 0, 0, 0])
        value, dlogits = lade_dv_regularizer(logits, labels, stats, lam=0.5)
        npt.assert_array_equal(dlogits[:, 1:], np.zeros((4, 2)))

    def test_gradient_matches_finite_differences(self):
        stats = stats_for([30, 10, 5])
        rng = make_rng(15)
        logits0 = rng.standard_normal((6, 3))
        labels = np.array([0, 1, 2, 0, 1, 0])

        def f(vec):
            value, dl = lade_dv_regularizer(vec.reshape(6, 3), labels, stats, 0.7)
            return value, dl.ravel()

        report = finite_diff_check(f, logits0.ravel(), tol=1e-5)
        assert report.passed, report
