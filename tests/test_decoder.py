import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import lthead.decoder

from lthead import (ConfigError, DecoderConfig, DecoderHead, ShapeError,
                    StateError, backward_batch, forward_batch, init_decoder,
                    make_rng)
from lthead.decoder import (BLOCK_FIELDS, _block_backward_batch,
                            _block_forward_batch, param_count, param_layout)
from lthead.numerics import layout_size


def zero_block_weights(head):
    for blk in head.blocks:
        for name in BLOCK_FIELDS:
            if not name.startswith("ln"):
                getattr(blk, name)[...] = 0.0


class TestConfig:
    def test_defaults(self):
        cfg = DecoderConfig(dim=64, num_classes=10)
        assert (cfg.depth, cfg.heads, cfg.mlp_ratio, cfg.dropout) == (3, 4, 4.0, 0.5)

    def test_dim_not_divisible_rejected(self):
        with pytest.raises(ConfigError):
            DecoderConfig(dim=10, num_classes=2, heads=4)

    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigError):
            DecoderConfig(dim=8, num_classes=2, depth=-1)

    def test_dropout_one_rejected(self):
        with pytest.raises(ConfigError):
            DecoderConfig(dim=8, num_classes=2, dropout=1.0)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), 0.0])
    def test_non_finite_mlp_ratio_rejected(self, ratio):
        with pytest.raises(ConfigError):
            DecoderConfig(dim=8, num_classes=2, mlp_ratio=ratio)

    @pytest.mark.parametrize("ratio", [0.1, 1e308], ids=["width_0", "overflow"])
    def test_mlp_width_below_one_or_overflowing_rejected(self, ratio):
        # 0.1 * 8 truncates to a zero-width MLP; 1e308 * 8 overflows to inf
        with pytest.raises(ConfigError, match="MLP width"):
            DecoderConfig(dim=8, num_classes=3, mlp_ratio=ratio)

    def test_mlp_width_one_accepted(self):
        cfg = DecoderConfig(dim=8, num_classes=3, mlp_ratio=0.125)
        assert cfg.hidden == 1
        assert init_decoder(cfg, make_rng(0)).blocks[0].fc1_weight.shape == (1, 8)

    @pytest.mark.parametrize("depth, ratio", [(0, 4.0), (2, 0.5), (3, 2.0)])
    def test_param_count_matches_layout(self, depth, ratio):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=depth, heads=2,
                            mlp_ratio=ratio)
        assert param_count(cfg) == layout_size(param_layout(cfg))


class TestInit:
    def test_seed_determinism(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=2, heads=2)
        a = init_decoder(cfg, make_rng(42))
        b = init_decoder(cfg, make_rng(42))
        for (na, pa), (nb, pb) in zip(a.params.items(), b.params.items()):
            assert na == nb
            npt.assert_array_equal(pa, pb)

    def test_depth_zero_only_classifier(self):
        head = init_decoder(DecoderConfig(dim=8, num_classes=3, depth=0, heads=1),
                            make_rng(0))
        assert head.blocks == []
        assert list(head.params) == ["cls_weight", "cls_bias"]

    def test_params_are_views_into_one_vector(self):
        head = init_decoder(DecoderConfig(dim=8, num_classes=3, depth=2, heads=2),
                            make_rng(0))
        flat = np.concatenate([a.ravel() for _, a in head.params.items()])
        npt.assert_array_equal(flat, head.params.vector)
        assert head.params.vector.size == flat.size
        head.blocks[1].fc2_bias[...] = 7.0
        npt.assert_array_equal(head.param_dict()["blocks.1.fc2_bias"], 7.0)

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ShapeError):
            DecoderHead(DecoderConfig(dim=8, num_classes=3, depth=1, heads=2),
                        np.zeros(5))

    def test_fc1_shape(self):
        head = init_decoder(DecoderConfig(dim=8, num_classes=2, depth=1,
                                          heads=4, mlp_ratio=4.0), make_rng(0))
        assert head.blocks[0].fc1_weight.shape == (32, 8)

    def test_layer_norm_identity_init(self):
        head = init_decoder(DecoderConfig(dim=8, num_classes=2, depth=1, heads=2),
                            make_rng(0))
        npt.assert_array_equal(head.blocks[0].ln1_gamma, np.ones(8))
        npt.assert_array_equal(head.blocks[0].ln1_beta, np.zeros(8))
        npt.assert_array_equal(head.cls_bias, np.zeros(2))


class TestBlockForward:
    def test_zero_weights_identity(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(1))
        zero_block_weights(head)
        tokens = make_rng(2).standard_normal((1, 5, 8))
        out, _ = _block_forward_batch(head.blocks[0], tokens, cfg, None, False)
        npt.assert_array_equal(out, tokens)

    def test_single_token_degenerate_attention(self):
        # with one token the attention context is exactly the v projection
        cfg = DecoderConfig(dim=6, num_classes=2, depth=1, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(3))
        blk = head.blocks[0]
        tokens = make_rng(4).standard_normal((1, 6))
        out, _ = _block_forward_batch(blk, tokens[None], cfg, None, False)

        from lthead.numerics import gelu, layer_norm
        xhat1, _ = layer_norm(tokens, blk.ln1_gamma, blk.ln1_beta)
        v = xhat1 @ blk.qkv_weight[12:].T + blk.qkv_bias[12:]
        x_mid = tokens + v @ blk.proj_weight.T + blk.proj_bias
        xhat2, _ = layer_norm(x_mid, blk.ln2_gamma, blk.ln2_beta)
        mlp = gelu(xhat2 @ blk.fc1_weight.T + blk.fc1_bias) @ blk.fc2_weight.T \
            + blk.fc2_bias
        npt.assert_allclose(out[0], x_mid + mlp, rtol=0, atol=1e-12)

    def test_multi_token_matches_single_token_math(self):
        # T=1 fast path agrees with the generic path run on stacked identical tokens
        cfg = DecoderConfig(dim=8, num_classes=2, depth=1, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(5))
        token = make_rng(6).standard_normal((1, 8))
        out1, _ = _block_forward_batch(head.blocks[0], token[None], cfg, None, False)
        out2, _ = _block_forward_batch(head.blocks[0], np.vstack([token, token])[None],
                                       cfg, None, False)
        npt.assert_allclose(out2[0, 0], out1[0, 0], rtol=0, atol=1e-12)
        npt.assert_allclose(out2[0, 1], out1[0, 0], rtol=0, atol=1e-12)

    def test_block_backward_finite_differences(self):
        cfg = DecoderConfig(dim=6, num_classes=2, depth=1, heads=3,
                            mlp_ratio=2.0, dropout=0.0)
        head0 = init_decoder(cfg, make_rng(7))
        tokens = make_rng(8).standard_normal((1, 4, 6))
        probe = make_rng(9).standard_normal((1, 4, 6))

        from lthead.numerics import finite_diff_check

        def f(vec):
            # the classifier entries of the vector get zero gradient both ways
            blk = DecoderHead(cfg, vec).blocks[0]
            out, cache = _block_forward_batch(blk, tokens, cfg, None, True)
            grads = DecoderHead(cfg)
            _block_backward_batch(blk, cache, probe, cfg, grads.blocks[0])
            return float(np.sum(out * probe)), grads.params.vector

        report = finite_diff_check(f, head0.params.vector, tol=1e-5)
        assert report.passed, report


class TestForward:
    def test_depth0_identity_classifier(self):
        head = init_decoder(DecoderConfig(dim=4, num_classes=4, depth=0, heads=1),
                            make_rng(0))
        head.cls_weight[...] = np.eye(4)
        head.cls_bias[...] = 0.0
        tokens = np.array([[[0.3, -1.2, 0.7, 2.0]]])
        logits, _ = forward_batch(head, tokens, None, False)
        npt.assert_array_equal(logits, tokens[0])

    def test_zero_blocks_equal_tokens_pool_identity(self):
        cfg = DecoderConfig(dim=4, num_classes=4, depth=2, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(1))
        zero_block_weights(head)
        head.cls_weight[...] = np.eye(4)
        head.cls_bias[...] = 0.0
        x = np.array([1.0, -2.0, 0.5, 3.0])
        tokens = np.tile(x, (1, 3, 1))
        logits, _ = forward_batch(head, tokens, None, False)
        npt.assert_allclose(logits[0], x, rtol=0, atol=1e-12)

    def test_eval_deterministic(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=2, heads=2, dropout=0.5)
        head = init_decoder(cfg, make_rng(2))
        tokens = make_rng(3).standard_normal((4, 5, 8))
        a, _ = forward_batch(head, tokens, None, False)
        b, _ = forward_batch(head, tokens, None, False)
        npt.assert_array_equal(a, b)

    def test_train_mode_dropout_varies(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.5)
        head = init_decoder(cfg, make_rng(2))
        tokens = make_rng(3).standard_normal((4, 2, 8))
        rng = make_rng(4)
        a, _ = forward_batch(head, tokens, rng, True)
        b, _ = forward_batch(head, tokens, rng, True)
        assert not np.array_equal(a, b)

    def test_permutation_invariance(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=3, heads=4, dropout=0.0)
        head = init_decoder(cfg, make_rng(5))
        tokens = make_rng(6).standard_normal((1, 7, 8))
        perm = make_rng(7).permutation(7)
        a, _ = forward_batch(head, tokens, None, False)
        b, _ = forward_batch(head, tokens[:, perm], None, False)
        npt.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_dim_mismatch(self):
        head = init_decoder(DecoderConfig(dim=8, num_classes=3, depth=1, heads=2),
                            make_rng(0))
        with pytest.raises(ShapeError):
            forward_batch(head, np.zeros((1, 2, 7)), None, False)

    def test_train_mode_dropout_without_rng_rejected(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.5)
        head = init_decoder(cfg, make_rng(0))
        tokens = make_rng(1).standard_normal((2, 3, 8))
        with pytest.raises(StateError, match="needs an rng"):
            forward_batch(head, tokens, None, True)
        # eval mode and a zero rate draw nothing, so they need no generator
        forward_batch(head, tokens, None, False)
        forward_batch(init_decoder(DecoderConfig(dim=8, num_classes=3, depth=1,
                                                 heads=2, dropout=0.0), make_rng(0)),
                      tokens, None, True)


class TestInference:
    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_eval_matches_train_bitwise_and_keeps_no_cache(self, depth, t):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=depth, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(depth))
        tokens = make_rng(10 + t).standard_normal((4, t, 8))
        train_logits, train_cache = forward_batch(head, tokens, None, True)
        eval_logits, eval_cache = forward_batch(head, tokens, None, False)
        npt.assert_array_equal(eval_logits.view(np.uint64),
                               train_logits.view(np.uint64))
        npt.assert_array_equal(eval_cache.pooled.view(np.uint64),
                               train_cache.pooled.view(np.uint64))
        assert eval_cache.block_caches is None
        with pytest.raises(StateError, match="eval-mode"):
            backward_batch(head, eval_cache, np.zeros((4, 3)))


class TestBackward:
    def test_zero_dlogits_zero_grads(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=2, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(0))
        tokens = make_rng(1).standard_normal((1, 3, 8))
        _, cache = forward_batch(head, tokens, None, True)
        grads, dtokens = backward_batch(head, cache, np.zeros((1, 3)))
        for name, g in grads.items():
            npt.assert_array_equal(g, np.zeros_like(g), err_msg=name)
        npt.assert_array_equal(dtokens, np.zeros_like(tokens))

    def test_depth0_linear_gradients(self):
        head = init_decoder(DecoderConfig(dim=5, num_classes=3, depth=0, heads=1),
                            make_rng(2))
        tokens = make_rng(3).standard_normal((1, 4, 5))
        dlogits = make_rng(4).standard_normal((1, 3))
        _, cache = forward_batch(head, tokens, None, True)
        grads, _ = backward_batch(head, cache, dlogits)
        pooled = tokens[0].mean(axis=0)
        npt.assert_allclose(grads["cls_weight"], np.outer(dlogits[0], pooled),
                            rtol=0, atol=1e-15)
        npt.assert_array_equal(grads["cls_bias"], dlogits[0])

    def test_gradients_share_the_parameter_layout(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=2, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(0))
        _, cache = forward_batch(head, make_rng(1).standard_normal((2, 3, 8)),
                                 None, True)
        grads, _ = backward_batch(head, cache, make_rng(2).standard_normal((2, 3)))
        assert list(grads) == list(head.params)
        flat = np.concatenate([g.ravel() for g in grads.values()])
        npt.assert_array_equal(flat, grads.vector)
        assert grads.vector.shape == head.params.vector.shape

    def test_reused_gradient_buffer_matches_fresh(self):
        # a multi-token pass fills the q/k rows that a one-token pass skips
        cfg = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(0))
        buf = DecoderHead(cfg)
        for t in (3, 1):
            _, cache = forward_batch(head, make_rng(t).standard_normal((2, t, 8)),
                                     None, True)
            dlogits = make_rng(5).standard_normal((2, 3))
            fresh, _ = backward_batch(head, cache, dlogits)
            reused, _ = backward_batch(head, cache, dlogits, out=buf)
            assert reused is buf.params
            npt.assert_array_equal(reused.vector, fresh.vector)
        with pytest.raises(ShapeError):
            backward_batch(head, cache, dlogits,
                           out=DecoderHead(DecoderConfig(dim=8, num_classes=3,
                                                         depth=2, heads=2)))

    def test_stale_cache_rejected(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(0))
        other = init_decoder(DecoderConfig(dim=8, num_classes=3, depth=2, heads=2,
                                           dropout=0.0), make_rng(0))
        _, cache = forward_batch(head, make_rng(1).standard_normal((2, 3, 8)),
                                 None, True)
        with pytest.raises(StateError):
            backward_batch(other, cache, np.zeros((2, 3)))

    def test_full_head_finite_differences(self):
        from lthead import run_gradcheck
        results = {r.name: r.report for r in run_gradcheck("decoder", 1e-5)}
        assert results["decoder.head"].passed
        assert results["decoder.block"].passed
        assert results["decoder.input"].passed


def cache_fields(cache):
    """(path, value) of every leaf a forward cache holds, in field order."""
    for f in dataclasses.fields(cache):
        value = getattr(cache, f.name)
        if dataclasses.is_dataclass(value):
            for path, leaf in cache_fields(value):
                yield f"{f.name}.{path}", leaf
        elif isinstance(value, list):
            for i, item in enumerate(value):
                for path, leaf in cache_fields(item):
                    yield f"{f.name}[{i}].{path}", leaf
        else:
            yield f.name, value


def assert_same_bits(a, b, path):
    if isinstance(a, np.ndarray):
        assert a.shape == b.shape, path
        npt.assert_array_equal(a.view(np.uint64), b.view(np.uint64), err_msg=path)
    else:
        assert a == b, path


class TestCacheReuse:
    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_overwritten_cache_equals_fresh_bitwise(self, depth, t):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=depth, heads=2, dropout=0.5)
        head = init_decoder(cfg, make_rng(depth))
        # the previous forward had another batch size and token count
        _, prev = forward_batch(head, make_rng(20).standard_normal((7, 4 - t, 8)),
                                make_rng(21), True)
        tokens = make_rng(10 + t).standard_normal((5, t, 8))
        fresh_logits, fresh = forward_batch(head, tokens, make_rng(30), True)
        logits, cache = forward_batch(head, tokens, make_rng(30), True, out=prev)
        assert cache is prev
        assert_same_bits(logits, fresh_logits, "logits")
        got, want = list(cache_fields(cache)), list(cache_fields(fresh))
        assert [p for p, _ in got] == [p for p, _ in want]
        for (path, a), (_, b) in zip(got, want):
            assert_same_bits(a, b, path)
        dlogits = make_rng(5).standard_normal((5, 3))
        grads, dtokens = backward_batch(head, cache, dlogits)
        want_grads, want_dtokens = backward_batch(head, fresh, dlogits)
        assert_same_bits(grads.vector, want_grads.vector, "grads")
        assert_same_bits(dtokens, want_dtokens, "dtokens")

    def test_eval_mode_out_rejected(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(0))
        tokens = make_rng(1).standard_normal((2, 3, 8))
        _, eval_cache = forward_batch(head, tokens, None, False)
        with pytest.raises(StateError, match="train-mode"):
            forward_batch(head, tokens, None, True, out=eval_cache)
        _, train_cache = forward_batch(head, tokens, None, True)
        with pytest.raises(StateError, match="train-mode"):
            forward_batch(head, tokens, None, False, out=train_cache)
        # a rejected call leaves the cache as it was
        backward_batch(head, train_cache, np.zeros((2, 3)))

    def test_mismatched_config_rejected(self):
        tokens = make_rng(1).standard_normal((2, 3, 8))
        heads = [init_decoder(DecoderConfig(dim=8, num_classes=3, depth=depth,
                                            heads=2, dropout=0.0), make_rng(0))
                 for depth in (1, 2)]
        _, cache = forward_batch(heads[0], tokens, None, True)
        with pytest.raises(StateError, match="does not match"):
            forward_batch(heads[1], tokens, None, True, out=cache)

    def test_interrupted_forward_leaves_a_rejected_cache(self, monkeypatch):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=2, heads=2, dropout=0.0)
        head = init_decoder(cfg, make_rng(0))
        tokens = make_rng(1).standard_normal((2, 3, 8))
        _, cache = forward_batch(head, tokens, None, True)
        block = lthead.decoder._block_forward_batch
        calls = []

        def fail_in_second_block(*args):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("simulated")
            return block(*args)

        monkeypatch.setattr(lthead.decoder, "_block_forward_batch",
                            fail_in_second_block)
        with pytest.raises(MemoryError):
            forward_batch(head, 2.0 * tokens, None, True, out=cache)
        monkeypatch.undo()
        with pytest.raises(StateError, match="incomplete"):
            backward_batch(head, cache, np.zeros((2, 3)))
        # a finished forward into the same cache makes it whole again
        logits, cache = forward_batch(head, tokens, None, True, out=cache)
        want, _ = forward_batch(head, tokens, None, True)
        assert_same_bits(logits, want, "logits")
        backward_batch(head, cache, np.zeros((2, 3)))


class TestBackwardMemory:
    def test_backward_writes_neither_dout_nor_cache(self):
        cfg = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.5)
        head = init_decoder(cfg, make_rng(0))
        for t in (1, 3):
            _, cache = forward_batch(head, make_rng(t).standard_normal((4, t, 8)),
                                     make_rng(2), True)
            dout = make_rng(3).standard_normal((4, t, 8))
            before = [(p, np.copy(v)) for p, v in cache_fields(cache)]
            dout_before = dout.copy()
            _block_backward_batch(head.blocks[0], cache.block_caches[0], dout,
                                  cfg, DecoderHead(cfg).blocks[0])
            assert_same_bits(dout, dout_before, "dout")
            for (path, a), (_, b) in zip(cache_fields(cache), before):
                assert_same_bits(a, b, path)

    def test_backward_peak_under_a_quarter_of_the_cache(self):
        # Stage one's shape at T=8. Each intermediate gradient is dropped once
        # consumed, so the backward's temporaries and its gradient vector
        # stay under a quarter of the forward cache.
        cfg = DecoderConfig(dim=64, num_classes=50, depth=3, heads=4, dropout=0.5)
        head = init_decoder(cfg, make_rng(0))
        _, cache = forward_batch(head, make_rng(1).standard_normal((256, 8, 64)),
                                 make_rng(2), True)
        dlogits = make_rng(3).standard_normal((256, 50))
        cache_bytes = sum(leaf.nbytes for path, leaf in cache_fields(cache)
                          if isinstance(leaf, np.ndarray)
                          and not path.endswith("gamma"))
        tracemalloc.start()
        try:
            backward_batch(head, cache, dlogits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * cache_bytes
