import itertools

import numpy as np
import numpy.testing as npt
import pytest

from lthead import (CALIBRATOR_VARIANTS, ConfigError, ShapeError, StateError,
                    context_weight_norms, init_calibrator, make_rng)
from lthead.calibrators import apply_batch, backward_batch


def random_ctx(seed, k=4, d=6):
    """One sample as a 1-row batch: (pooled, logits, weight_norms)."""
    rng = make_rng(seed)
    return (rng.standard_normal(d)[None], rng.standard_normal(k)[None],
            np.abs(rng.standard_normal(k)) + 0.1)


class TestInit:
    def test_lws_identity(self):
        cal = init_calibrator("lws", 4, 6, make_rng(0))
        ctx = random_ctx(1)
        adjusted, _ = apply_batch(cal, *ctx)
        npt.assert_array_equal(adjusted, ctx[1])

    def test_marc_identity(self):
        cal = init_calibrator("marc", 4, 6, make_rng(0))
        assert sum(a.size for a in cal.param_dict().values()) == 8  # exactly 2K
        ctx = random_ctx(2)
        adjusted, _ = apply_batch(cal, *ctx)
        npt.assert_array_equal(adjusted, ctx[1])

    def test_disalign_identity(self):
        cal = init_calibrator("disalign", 4, 6, make_rng(0))
        ctx = random_ctx(3)
        adjusted, _ = apply_batch(cal, *ctx)
        npt.assert_allclose(adjusted, ctx[1], rtol=0, atol=1e-12)

    def test_crt_seed_determinism(self):
        a = init_calibrator("crt", 4, 6, make_rng(5))
        b = init_calibrator("crt", 4, 6, make_rng(5))
        npt.assert_array_equal(a.weight, b.weight)
        npt.assert_array_equal(a.bias, b.bias)

    def test_identity_preserves_argmax(self):
        for variant in ("lws", "disalign", "marc"):
            cal = init_calibrator(variant, 5, 3, make_rng(0))
            for seed in range(10):
                ctx = random_ctx(seed, k=5, d=3)
                adjusted, _ = apply_batch(cal, *ctx)
                assert np.argmax(adjusted) == np.argmax(ctx[1])
                npt.assert_allclose(adjusted, ctx[1], rtol=0, atol=1e-12)


class TestLayout:
    @pytest.mark.parametrize("variant", CALIBRATOR_VARIANTS)
    def test_params_and_grads_share_one_vector_layout(self, variant):
        cal = init_calibrator(variant, 4, 6, make_rng(0))
        flat = np.concatenate([a.ravel() for a in cal.param_dict().values()])
        npt.assert_array_equal(flat, cal.params.vector)
        _, cache = apply_batch(cal, *random_ctx(13))
        grads, _, _ = backward_batch(cal, cache, np.ones((1, 4)))
        assert list(grads) == list(cal.param_dict())
        assert grads.vector.shape == cal.params.vector.shape

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            init_calibrator("temperature", 4, 6, make_rng(0))

    @pytest.mark.parametrize("variant", CALIBRATOR_VARIANTS)
    def test_mismatched_inputs_rejected(self, variant):
        cal = init_calibrator(variant, 4, 6, make_rng(0))
        pooled, logits, norms = random_ctx(14)
        with pytest.raises(ShapeError):
            apply_batch(cal, pooled[:, :5], logits, norms)
        with pytest.raises(ShapeError):
            apply_batch(cal, pooled, logits[:, :3], norms)
        for bad_norms in (norms[:1], np.ones((7, 7))):
            with pytest.raises(ShapeError):
                apply_batch(cal, pooled, logits, bad_norms)


class TestApply:
    def test_lws_analytic(self):
        cal = init_calibrator("lws", 2, 3, make_rng(0))
        cal.scales[...] = [1.0, 2.0]
        adjusted, _ = apply_batch(cal, np.zeros((1, 3)), np.array([[3.0, 3.0]]),
                                  np.ones(2))
        npt.assert_array_equal(adjusted, [[3.0, 6.0]])

    def test_marc_analytic(self):
        cal = init_calibrator("marc", 2, 3, make_rng(0))
        cal.omega[...] = 2.0
        adjusted, _ = apply_batch(cal, np.zeros((1, 3)), np.array([[1.0, -1.0]]),
                                  np.ones(2))
        npt.assert_array_equal(adjusted, [[2.0, -2.0]])

    def test_marc_bias_in_norm_units(self):
        cal = init_calibrator("marc", 2, 3, make_rng(0))
        cal.beta[...] = [1.0, -2.0]
        adjusted, _ = apply_batch(cal, np.zeros((1, 3)), np.zeros((1, 2)),
                                  np.array([3.0, 0.5]))
        npt.assert_array_equal(adjusted, [[3.0, -1.0]])

    def test_disalign_gate_forced_closed(self):
        cal = init_calibrator("disalign", 3, 4, make_rng(0))
        cal.alpha[...] = [5.0, -2.0, 0.1]
        cal.beta[...] = [1.0, 1.0, 1.0]
        cal.conf_weight[...] = 0.0
        cal.conf_bias[...] = -50.0  # sigma is ~2e-22
        ctx = random_ctx(4, k=3, d=4)
        adjusted, _ = apply_batch(cal, *ctx)
        npt.assert_allclose(adjusted, ctx[1], rtol=0, atol=1e-12)

    def test_crt_ignores_raw_logits(self):
        cal = init_calibrator("crt", 3, 4, make_rng(1))
        pooled, logits, norms = random_ctx(5, k=3, d=4)
        a, _ = apply_batch(cal, pooled, logits, norms)
        b, _ = apply_batch(cal, pooled, logits + 100.0, norms)
        npt.assert_array_equal(a, b)
        npt.assert_allclose(a[0], cal.weight @ pooled[0] + cal.bias,
                            rtol=0, atol=1e-15)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        for variant in CALIBRATOR_VARIANTS:
            cal = init_calibrator(variant, 4, 6, make_rng(2))
            ctx = random_ctx(6)
            _, cache = apply_batch(cal, *ctx)
            grads, dlogits, dpooled = backward_batch(cal, cache, np.zeros((1, 4)))
            for name, g in grads.items():
                npt.assert_array_equal(g, np.zeros_like(g), err_msg=name)
            npt.assert_array_equal(dlogits, np.zeros((1, 4)))
            npt.assert_array_equal(dpooled, np.zeros((1, 6)))

    def test_lws_product_rule(self):
        cal = init_calibrator("lws", 4, 6, make_rng(3))
        ctx = random_ctx(7)
        _, cache = apply_batch(cal, *ctx)
        upstream = make_rng(8).standard_normal(4)
        grads, _, _ = backward_batch(cal, cache, upstream[None])
        npt.assert_allclose(grads["scales"], ctx[1][0] * upstream,
                            rtol=0, atol=1e-15)

    @pytest.mark.parametrize("made_by, given_to",
                             itertools.permutations(CALIBRATOR_VARIANTS, 2))
    def test_cache_from_another_variant_rejected(self, made_by, given_to):
        ctx = random_ctx(15)
        _, cache = apply_batch(init_calibrator(made_by, 4, 6, make_rng(0)), *ctx)
        cal = init_calibrator(given_to, 4, 6, make_rng(0))
        with pytest.raises(StateError, match="different calibrator variant"):
            backward_batch(cal, cache, np.ones((1, 4)))

    @pytest.mark.parametrize("variant", CALIBRATOR_VARIANTS)
    def test_gradient_of_wrong_shape_rejected(self, variant):
        cal = init_calibrator(variant, 4, 6, make_rng(0))
        _, cache = apply_batch(cal, *random_ctx(16))
        for bad in (np.ones((2, 4)), np.ones((1, 3)), np.ones(4)):
            with pytest.raises(StateError, match="gradient shape"):
                backward_batch(cal, cache, bad)

    @pytest.mark.parametrize("variant", CALIBRATOR_VARIANTS)
    def test_parameters_match_finite_differences(self, variant):
        from lthead import run_gradcheck
        results = {r.name: r.report for r in run_gradcheck("calibrators", 1e-5)}
        assert results[f"calibrators.{variant}.params"].passed
        assert results[f"calibrators.{variant}.inputs"].passed


class TestAffineStructure:
    @pytest.mark.parametrize("variant", ["lws", "marc"])
    def test_adjusted_logits_affine_in_parameters(self, variant):
        # superposition: cal(p1 + p2) + cal(0) == cal(p1) + cal(p2)
        k, d = 4, 5
        rng = make_rng(9)
        pooled = rng.standard_normal((3, d))
        logits = rng.standard_normal((3, k))
        norms = np.abs(rng.standard_normal(k)) + 0.2

        def run(param_vals):
            cal = init_calibrator(variant, k, d, make_rng(0))
            for arr, val in zip(cal.param_dict().values(), param_vals):
                arr[...] = val
            out, _ = apply_batch(cal, pooled, logits, norms)
            return out

        names = list(init_calibrator(variant, k, d, make_rng(0)).param_dict())
        p1 = [rng.standard_normal(k) for _ in names]
        p2 = [rng.standard_normal(k) for _ in names]
        zero = [np.zeros(k) for _ in names]
        lhs = run([a + b for a, b in zip(p1, p2)]) + run(zero)
        rhs = run(p1) + run(p2)
        npt.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


class TestBatchConsistency:
    @pytest.mark.parametrize("variant", CALIBRATOR_VARIANTS)
    def test_batch_rows_match_single_samples(self, variant):
        # a 1-row apply_batch equals that row of the full batch
        k, d = 5, 4
        cal = init_calibrator(variant, k, d, make_rng(10))
        for arr in cal.param_dict().values():
            arr += 0.1 * make_rng(11).standard_normal(arr.shape)
        rng = make_rng(12)
        pooled = rng.standard_normal((6, d))
        logits = rng.standard_normal((6, k))
        norms = np.abs(rng.standard_normal(k)) + 0.3
        batch_out, _ = apply_batch(cal, pooled, logits, norms)
        for i in range(6):
            single, _ = apply_batch(cal, pooled[i:i + 1], logits[i:i + 1], norms)
            npt.assert_allclose(batch_out[i], single[0], rtol=0, atol=1e-12)


def test_weight_norms_helper():
    w = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    npt.assert_allclose(context_weight_norms(w), [5.0, 0.0, 1.0],
                        rtol=0, atol=1e-15)
