import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from lthead import (DomainError, EvaluationError, ShapeError, dropout_mask,
                    finite_diff_check, gelu, gelu_with_grad, layer_norm,
                    layer_norm_backward, make_rng, softmax_rows)
from lthead.numerics import (_GELU_A, _GELU_C, _TILE, linear, linear_backward,
                             logsumexp_rows, softmax_last)


def lse(v):
    """log-sum-exp of one vector through the library's row-wise kernel."""
    return float(logsumexp_rows(np.asarray(v, dtype=np.float64)[None])[0, 0])


class TestLogSumExp:
    def test_two_zeros(self):
        assert lse(np.array([0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-15)

    def test_shift_invariance_huge(self):
        assert lse(np.array([1000.0, 1000.0])) == pytest.approx(
            1000.0 + math.log(2), abs=1e-12)

    def test_singleton(self):
        assert lse(np.array([3.75])) == 3.75

    def test_no_overflow(self):
        v = np.array([1e8, 1e8 - 3.0])
        out = lse(v)
        assert np.isfinite(out) and out >= 1e8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lse(np.array([]))

    def test_shift_property(self):
        rng = make_rng(3)
        for _ in range(50):
            v = rng.standard_normal(7) * 5
            c = float(rng.standard_normal()) * 10
            assert lse(v + c) == pytest.approx(lse(v) + c, abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (256, 50), (17, 8142)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 700.0])
    def test_bits_match_two_temporary_expression(self, shape, scale):
        m = scale * make_rng(shape[1]).standard_normal(shape)
        if shape[1] > 1:
            m[0, -1] = -np.inf  # exp gives exactly 0 either way
        mx = np.max(m, axis=1, keepdims=True)
        want = mx + np.log(np.sum(np.exp(m - mx), axis=1, keepdims=True))
        npt.assert_array_equal(logsumexp_rows(m).view(np.uint64),
                               want.view(np.uint64))

    def test_peak_is_one_temporary(self):
        m = make_rng(0).standard_normal((256, 2000))
        tracemalloc.start()
        try:
            logsumexp_rows(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * m.nbytes


class TestSoftmaxRows:
    def test_uniform(self):
        npt.assert_allclose(softmax_rows(np.zeros((1, 3))),
                            np.full((1, 3), 1 / 3), rtol=0, atol=1e-15)

    def test_analytic(self):
        out = softmax_rows(np.array([[math.log(2), 0.0]]))
        npt.assert_allclose(out, [[2 / 3, 1 / 3]], rtol=0, atol=1e-15)

    def test_large_logit_stable(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = make_rng(4)
        logits = rng.standard_normal((1000, 9)) * 30
        sums = softmax_rows(logits).sum(axis=1)
        npt.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    def test_entries_in_open_interval(self):
        rng = make_rng(5)
        p = softmax_rows(rng.standard_normal((100, 4)))
        assert np.all(p > 0) and np.all(p < 1)


def bits(a):
    return np.asarray(a).view(np.uint64)


class TestSoftmaxLast:
    @pytest.mark.parametrize("t", [2, 8, 33])
    def test_in_place_equals_the_out_of_place_formula_bitwise(self, t):
        scores = make_rng(t).standard_normal((5, 3, t, t)) * 4
        scores[..., t // 2] = -np.inf  # a masked key in every row
        mx = np.max(scores, axis=-1, keepdims=True)
        e = np.exp(scores - mx)
        want = e / np.sum(e, axis=-1, keepdims=True)
        got = softmax_last(scores)
        assert got is scores
        npt.assert_array_equal(bits(got), bits(want))


class TestLinear:
    """The affine pair keeps the bits of the inline expressions it replaced:
    `x @ W.T + b`, `dout.T @ x`, `dout.sum(axis=0)` and `dout @ W` on rows."""

    @pytest.mark.parametrize("lead", [(37,), (13, 3)], ids=["B_in", "B_T_in"])
    def test_bits_match_row_expressions(self, lead):
        rng = make_rng(7)
        x = rng.standard_normal(lead + (48,))
        w, b = rng.standard_normal((40, 48)), rng.standard_normal(40)
        dout = rng.standard_normal(lead + (40,))
        rows, drows = x.reshape(-1, 48), dout.reshape(-1, 40)
        npt.assert_array_equal(bits(linear(x, w, b)),
                               bits((rows @ w.T + b).reshape(lead + (40,))))
        grads = np.zeros(40 * 48 + 40)  # views into one vector, as in a head
        dw, db = grads[:40 * 48].reshape(40, 48), grads[40 * 48:]
        dx = linear_backward(dout, x, w, dw, db)
        npt.assert_array_equal(bits(dw), bits(drows.T @ rows))
        npt.assert_array_equal(bits(db), bits(drows.sum(axis=0)))
        npt.assert_array_equal(bits(dx), bits((drows @ w).reshape(x.shape)))


class TestLayerNorm:
    def test_constant_input_zero(self):
        y, _ = layer_norm(np.full(6, 3.5), np.ones(6), np.zeros(6))
        npt.assert_allclose(y, 0.0, rtol=0, atol=1e-12)

    def test_unit_variance_case(self):
        y, _ = layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2))
        npt.assert_array_equal(y, np.array([1.0, -1.0]) / math.sqrt(1 + 1e-5))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros(4), np.ones(3), np.zeros(4))

    def test_scalar_input_rejected(self):
        with pytest.raises(ShapeError, match="0-d"):
            layer_norm(np.float64(2.0), np.ones(1), np.zeros(1))

    def test_backward_dx_independent_of_dy_layout(self):
        # A row sum over a column-major dy would run in another order.
        rng = make_rng(42)
        x, gamma = rng.standard_normal((300, 64)), rng.standard_normal(64)
        _, cache = layer_norm(x, gamma, np.zeros(64))
        dy_t = (rng.standard_normal((64, 300)) * 3).T
        dx, _, _ = layer_norm_backward(cache, dy_t)
        dx_c, _, _ = layer_norm_backward(cache, np.ascontiguousarray(dy_t))
        npt.assert_array_equal(dx, dx_c, strict=True)

    def test_backward_matches_finite_differences(self):
        rng = make_rng(6)
        d = 5
        x0 = rng.standard_normal(d)
        g0 = rng.standard_normal(d)
        b0 = rng.standard_normal(d)
        probe = rng.standard_normal(d)

        def f(vec):
            x, g, b = vec[:d], vec[d:2 * d], vec[2 * d:]
            y, cache = layer_norm(x, g, b)
            dx, dg, db = layer_norm_backward(cache, probe)
            return float(np.sum(y * probe)), np.concatenate([dx, dg, db])

        report = finite_diff_check(f, np.concatenate([x0, g0, b0]), tol=1e-6)
        assert report.passed, report


class TestGelu:
    def test_zero(self):
        assert gelu(0.0) == 0.0

    def test_asymptotic_identity(self):
        assert gelu(10.0) == pytest.approx(10.0, abs=1e-6)

    def test_monotone_on_grid(self):
        # GELU dips below zero with a stationary point near -0.75 and is
        # strictly increasing to the right of it
        xs = np.linspace(-0.7, 6, 200)
        ys = gelu(xs)
        assert np.all(np.diff(ys) > 0)

    def test_negative_tail_bounded(self):
        xs = np.linspace(-6, 0, 100)
        ys = gelu(xs)
        assert np.all(ys <= 0) and ys.min() > -0.2

    def test_derivative_matches_central_difference(self):
        def f(vec):
            return float(gelu(vec[0])), np.array([gelu_with_grad(vec[0])[1]])

        report = finite_diff_check(f, np.array([0.5]), tol=1e-6)
        assert report.passed, report

    def test_with_grad_consistent(self):
        x = make_rng(7).standard_normal(100)
        v, g = gelu_with_grad(x)
        npt.assert_array_equal(v, gelu(x))
        npt.assert_array_equal(g, [gelu_with_grad(xi)[1] for xi in x])


def untiled_layer_norm(x, gamma, beta, eps=1e-5):
    """layer_norm as it was before tiling: whole-array passes."""
    d = x.shape[-1]
    mean = np.sum(x, axis=-1, keepdims=True)
    mean /= d
    centered = x - mean
    var = np.sum(centered * centered, axis=-1, keepdims=True)
    var /= d
    var += eps
    inv_std = 1.0 / np.sqrt(var, out=var)
    xhat = centered
    xhat *= inv_std
    return gamma * xhat + beta, xhat, inv_std


def untiled_layer_norm_backward(xhat, inv_std, gamma, dy):
    lead = tuple(range(dy.ndim - 1))
    dgamma = np.sum(dy * xhat, axis=lead)
    dbeta = np.sum(dy, axis=lead)
    d = dy.shape[-1]
    dxhat = dy * gamma
    m1 = np.sum(dxhat, axis=-1, keepdims=True)
    m1 /= d
    m2 = np.sum(dxhat * xhat, axis=-1, keepdims=True)
    m2 /= d
    dx = dxhat
    dx -= m1
    dx -= xhat * m2
    dx *= inv_std
    return dx, dgamma, dbeta


def untiled_gelu_with_grad(x):
    x2 = x * x
    u = x2 * _GELU_A
    u += 1.0
    u *= x
    u *= _GELU_C
    t = np.tanh(u, out=u)
    half_1pt = t + 1.0
    half_1pt *= 0.5
    value = half_1pt * x
    du = x2
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    grad = t
    grad *= t
    np.subtract(1.0, grad, out=grad)
    grad *= du
    grad *= x
    grad *= 0.5
    grad += half_1pt
    return value, grad


def tile_inputs():
    """Inputs below, at and across _TILE, plus the degenerate layouts."""
    rng = make_rng(40)
    wide = rng.standard_normal((300, 128)) * 3
    return {
        "small": rng.standard_normal((3, 7)),
        "one_tile": rng.standard_normal((_TILE // 64, 64)),
        "tok8_hidden": rng.standard_normal((256, 8, 256)) * 3,
        "ragged_rows": rng.standard_normal((2051, 64)),
        "vector": rng.standard_normal(64),
        "long_vector": rng.standard_normal(_TILE + 5),
        "empty": np.zeros((0, 64)),
        "strided": wide[:, ::2],
        "transposed": wide[:64].T,
    }


@pytest.mark.bits
class TestTilesMatchUntiled:
    """The tiled kernels reproduce the whole-array code bit for bit."""

    def test_shapes_span_tiles(self):
        assert 256 * 8 * 256 > 8 * _TILE and 2051 * 64 % _TILE != 0

    @pytest.mark.parametrize("name", list(tile_inputs()))
    def test_gelu(self, name):
        x = tile_inputs()[name]
        v_ref, g_ref = untiled_gelu_with_grad(x)
        v, g = gelu_with_grad(x)
        assert v.shape == g.shape == x.shape
        npt.assert_array_equal(v, v_ref, strict=True)
        npt.assert_array_equal(g, g_ref, strict=True)
        npt.assert_array_equal(gelu(x), v_ref, strict=True)

    def test_gelu_scalar(self):
        v_ref, g_ref = untiled_gelu_with_grad(np.array([-1.3]))
        v, g = gelu_with_grad(-1.3)
        assert v.shape == g.shape == () and v == v_ref[0] and g == g_ref[0]
        assert gelu(np.float64(-1.3)) == v_ref[0]

    @pytest.mark.parametrize("name", list(tile_inputs()))
    def test_layer_norm(self, name):
        x = tile_inputs()[name]
        rng = make_rng(41)
        d = x.shape[-1]
        gamma, beta = rng.standard_normal(d), rng.standard_normal(d)
        dy = rng.standard_normal(x.shape)
        # The kernels work on C-ordered rows. The old code summed a row
        # whose last axis is not the unit-stride one in another order, so a
        # transposed input gets the bits of its C-contiguous copy.
        ref_x = np.ascontiguousarray(x) if name == "transposed" else x
        y_ref, xhat_ref, inv_ref = untiled_layer_norm(ref_x, gamma, beta)
        y, cache = layer_norm(x, gamma, beta)
        npt.assert_array_equal(y, y_ref, strict=True)
        npt.assert_array_equal(cache.xhat, xhat_ref, strict=True)
        npt.assert_array_equal(cache.inv_std, inv_ref, strict=True)
        ref = untiled_layer_norm_backward(xhat_ref, inv_ref, gamma, dy)
        for got, want in zip(layer_norm_backward(cache, dy), ref):
            npt.assert_array_equal(got, want, strict=True)


class TestLayerNormOutput:
    @pytest.mark.parametrize("name", list(tile_inputs()))
    def test_recomputed_output_equals_forward_bitwise(self, name):
        # the decoder's backward recomputes the output instead of caching it
        x = tile_inputs()[name]
        rng = make_rng(42)
        gamma, beta = rng.standard_normal(x.shape[-1]), rng.standard_normal(x.shape[-1])
        y, cache = layer_norm(x, gamma, beta)
        npt.assert_array_equal(cache.output(beta), y, strict=True)


class TestGeluOut:
    """`out=` takes the value; it may be the input itself, with the same bits."""

    SIZES = [1, _TILE - 1, _TILE, _TILE + 1, 3 * _TILE + 5]

    @staticmethod
    def inputs(n, special):
        x = 4.0 * make_rng(n).standard_normal(n)
        for i in (0, n - 1, _TILE - 1, _TILE):  # both ends and a tile edge
            if i < n:
                x[i] = special
        return x

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("special", [0.0, -0.0, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("n", SIZES)
    def test_in_place_equals_fresh_bitwise(self, n, special):
        x = self.inputs(n, special)
        v_ref, g_ref = gelu_with_grad(x)
        y = x.copy()
        v, g = gelu_with_grad(y, out=y)
        assert v is y
        npt.assert_array_equal(v.view(np.uint64), v_ref.view(np.uint64))
        npt.assert_array_equal(g.view(np.uint64), g_ref.view(np.uint64))
        z = x.copy()
        assert gelu(z, out=z) is z
        npt.assert_array_equal(z.view(np.uint64), v_ref.view(np.uint64))

    def test_separate_out_leaves_input(self):
        x = self.inputs(_TILE + 1, np.nan)
        x_before, out = x.copy(), np.empty_like(x)
        assert gelu(x, out=out) is out
        npt.assert_array_equal(out.view(np.uint64), gelu(x).view(np.uint64))
        npt.assert_array_equal(x.view(np.uint64), x_before.view(np.uint64))

    @pytest.mark.parametrize("fn", [gelu, gelu_with_grad])
    def test_bad_out_rejected(self, fn):
        x = make_rng(0).standard_normal((4, 6))
        buf = np.empty(48)
        for out in (np.empty((4, 5)), np.empty(24), np.empty((4, 6), np.float32),
                    buf[::2].reshape(4, 6), [[0.0] * 6] * 4):
            with pytest.raises(ShapeError, match="out="):
                fn(x, out=out)
        overlapping = np.empty(25)
        with pytest.raises(ShapeError, match="out="):
            fn(overlapping[:24].reshape(4, 6), out=overlapping[1:].reshape(4, 6))


class TestDropoutMask:
    def test_rate_zero_all_ones(self):
        mask = dropout_mask((3, 4), 0.0, make_rng(0))
        npt.assert_array_equal(mask, np.ones((3, 4)))

    def test_rate_one_rejected(self):
        with pytest.raises(DomainError):
            dropout_mask((2,), 1.0, make_rng(0))

    def test_mean_matches_binomial_expectation(self):
        # mask entries are Bernoulli(keep)/keep; mean 1, var rate/keep
        n = 10 ** 6
        rate = 0.5
        mask = dropout_mask((n,), rate, make_rng(8))
        sigma = math.sqrt((rate / (1 - rate)) / n)
        assert abs(mask.mean() - 1.0) < 3 * sigma

    def test_values_binary(self):
        mask = dropout_mask((1000,), 0.3, make_rng(9))
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.7}

    def test_seed_reproducibility(self):
        a = dropout_mask((100, 7), 0.4, make_rng(10))
        b = dropout_mask((100, 7), 0.4, make_rng(10))
        npt.assert_array_equal(a, b)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(50)
        b = make_rng(123).standard_normal(50)
        npt.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).standard_normal(10),
                                  make_rng(2).standard_normal(10))


class TestFiniteDiffCheck:
    def test_square_function(self):
        def f(p):
            return float(p[0] ** 2), np.array([2.0 * p[0]])

        report = finite_diff_check(f, np.array([3.0]), tol=1e-8)
        assert report.passed
        assert report.max_rel_err < 1e-8

    def test_cross_entropy_logits(self):
        from lthead import build_class_stats, make_loss_spec, total_loss
        stats = build_class_stats(np.array([0, 1, 2]), 3)
        spec = make_loss_spec("ce", stats)
        labels = np.array([1])

        def f(p):
            value, dl = total_loss(spec, p.reshape(1, 3), labels, stats)
            return value, dl.ravel()

        report = finite_diff_check(f, np.array([0.2, -0.4, 1.1]), tol=1e-5)
        assert report.passed

    def test_wrong_gradient_fails(self):
        def f(p):
            return float(p[0] ** 2), np.array([4.0 * p[0]])  # off by 2x

        report = finite_diff_check(f, np.array([3.0]))
        assert not report.passed

    def test_non_finite_value_raises(self):
        def f(p):
            return float("nan"), np.zeros(1)

        with pytest.raises(EvaluationError):
            finite_diff_check(f, np.array([1.0]))
