import dataclasses
import math
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import lthead.numerics
import lthead.training
from lthead import (CALIBRATOR_VARIANTS, ConfigError, DecoderConfig,
                    DivergenceError, DomainError, ShapeError,
                    DataError, FeatureDataset, SyntheticSpec,
                    TextClassEmbeddings, TrainConfig, build_class_stats,
                    evaluate, forward_batch, generate_synthetic_lt,
                    init_decoder, load_checkpoint, lr_at, make_rng,
                    metrics_from_predictions,
                    parse_run_config, save_checkpoint,
                    sgd_step, softmax_rows, stats_from_counts, train_stage1,
                    train_stage2, zero_shot_classify)
from lthead.decoder import param_count
from lthead.numerics import _TILE
from lthead.training import (EVAL_CHUNK, EvalReport, report_json,
                             render_report, stage2_schedule)


def small_cfg(**kw):
    base = dict(seed=0, total_iters=30, batch_size=16, warmup_iters=5)
    base.update(kw)
    return TrainConfig(**base)


def tiny_problem(seed=0, num_classes=3, dim=8, balanced=True):
    spec = SyntheticSpec(num_classes=num_classes, head_count=30,
                         imbalance_ratio=1.0 if balanced else 10.0, dim=dim,
                         separation=2.0, noise=0.5, test_per_class=10, seed=seed)
    return generate_synthetic_lt(spec)


class TestLrSchedule:
    CFG = TrainConfig(seed=0)

    def test_warmup_end_hits_lr0(self):
        assert lr_at(self.CFG, 512) == pytest.approx(0.03, abs=1e-15)

    def test_cosine_midpoint(self):
        assert lr_at(self.CFG, 4352) == pytest.approx(0.015, abs=1e-15)

    def test_linear_warmup_midpoint(self):
        assert lr_at(self.CFG, 256) == pytest.approx(0.015, abs=1e-15)

    def test_continuity_at_junction(self):
        left = lr_at(self.CFG, 511)
        right = lr_at(self.CFG, 512)
        assert abs(right - left) < self.CFG.lr0 / 512 + 1e-12

    def test_final_iteration_near_zero(self):
        span = 8192 - 512
        bound = 0.03 * (math.pi / (2 * span)) ** 2 * 2
        assert 0 < lr_at(self.CFG, 8191) < bound

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            lr_at(self.CFG, 8192)
        with pytest.raises(DomainError):
            lr_at(self.CFG, -1)

    def test_stage2_schedule_after_empty_stage_one(self):
        cfg = stage2_schedule(TrainConfig(total_iters=0, warmup_iters=0,
                                          stage2_iters=8))
        assert (cfg.total_iters, cfg.warmup_iters) == (8, 0)


class TestSgdStep:
    def test_plain_gradient_descent(self):
        params = np.array([1.0, 2.0])
        grads = np.array([0.5, -1.0])
        sgd_step(params, grads, np.zeros(2), lr=0.1, momentum=0.0,
                 weight_decay=0.0)
        npt.assert_allclose(params, [0.95, 2.1], rtol=0, atol=1e-15)

    def test_zero_grads_no_change(self):
        params = np.array([1.0, -3.0])
        sgd_step(params, np.zeros(2), np.zeros(2), lr=0.1, momentum=0.9,
                 weight_decay=0.0)
        npt.assert_array_equal(params, [1.0, -3.0])

    def test_two_steps_match_scalar_recurrence_oracle(self):
        # f(x) = x^2 from x=1: grad 2x, momentum 0.9, wd 0.1, lr 0.05
        lr, mom, wd = 0.05, 0.9, 0.1
        x, v = 1.0, 0.0
        trace = []
        for _ in range(2):
            g = 2.0 * x + wd * x
            v = mom * v + g
            x = x - lr * v
            trace.append(x)

        params = np.array([1.0])
        velocity = np.zeros(1)
        for step in range(2):
            sgd_step(params, 2.0 * params, velocity, lr=lr, momentum=mom,
                     weight_decay=wd)
            assert params[0] == pytest.approx(trace[step], abs=1e-15)

    def test_shape_mismatch(self):
        params = np.zeros(3)
        from lthead import ShapeError
        with pytest.raises(ShapeError):
            sgd_step(params, np.zeros(4), np.zeros(3), 0.1, 0.9, 0.0)

    def test_training_calls_the_numerics_update(self):
        # the benchmark traces lthead.training.sgd_step: it must be this one
        assert lthead.training.sgd_step is lthead.numerics.sgd_step
        assert lthead.sgd_step is lthead.numerics.sgd_step

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("size", [1, _TILE, _TILE + 5])
    def test_tiles_match_whole_vector_bitwise(self, size, weight_decay):
        rng = make_rng(size)
        params, velocity = rng.standard_normal(size), np.zeros(size)
        want_p, want_v = params.copy(), velocity.copy()
        for step in range(5):
            grads = rng.standard_normal(size)
            lr = 0.03 * (step + 1)
            sgd_step(params, grads, velocity, lr, 0.9, weight_decay)
            # the untiled update: g = p*wd + grad; v = v*m + g; p -= v*lr
            g = want_p * weight_decay + grads if weight_decay else grads
            want_v *= 0.9
            want_v += g
            want_p -= want_v * lr
            npt.assert_array_equal(params.view(np.uint64), want_p.view(np.uint64))
            npt.assert_array_equal(velocity.view(np.uint64), want_v.view(np.uint64))


class TestRunConfig:
    def test_round_trip(self):
        text = ("seed=3\ntotal_iters=100\nbatch_size=32\nlr0=0.05\n"
                "warmup_iters=10\nmomentum=0.8\nweight_decay=0.001\nloss=bsm\n"
                "focal_gamma=1.5\nldam_max_margin=0.3\nlade_lambda=0.2\n"
                "stage2_method=marc\nstage2_iters=64\ndepth=2\nheads=2\n"
                "mlp_ratio=2.0\ndropout=0.25\n")
        want = TrainConfig(seed=3, total_iters=100, batch_size=32, lr0=0.05,
                           warmup_iters=10, momentum=0.8, weight_decay=0.001,
                           loss="bsm", focal_gamma=1.5, ldam_max_margin=0.3,
                           lade_lambda=0.2, stage2_method="marc",
                           stage2_iters=64, depth=2, heads=2, mlp_ratio=2.0,
                           dropout=0.25)
        # the literal sets every field, each away from its default
        assert all(getattr(want, f.name) != f.default
                   for f in dataclasses.fields(TrainConfig))
        assert parse_run_config(text) == want

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_run_config("learning_rate=0.1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_run_config("total_iters=many\n")

    def test_comments_and_blanks(self):
        cfg = parse_run_config("# cfg\n\nseed=5\nloss=focal\n")
        assert cfg.seed == 5 and cfg.loss == "focal"

    def test_invalid_warmup(self):
        with pytest.raises(ConfigError):
            TrainConfig(total_iters=100, warmup_iters=100)


def _cache_arrays(obj):
    """Every activation array a forward cache holds; gamma is a parameter."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, list):
        for item in obj:
            yield from _cache_arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name != "gamma":
                yield from _cache_arrays(getattr(obj, f.name))


class TestTrainStage1:
    def test_zero_iterations_keeps_init(self):
        train, _ = tiny_problem()
        cfg = small_cfg(total_iters=0, warmup_iters=0)
        dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.0)
        from lthead import init_decoder
        head, log = train_stage1(train, cfg, dc, make_rng(cfg.seed))
        fresh = init_decoder(dc, make_rng(cfg.seed))
        for (_, a), (_, b) in zip(head.params.items(), fresh.params.items()):
            npt.assert_array_equal(a, b)
        assert log.size == 0

    def test_width_mismatch_rejected_without_iterations(self):
        train, _ = tiny_problem(dim=8)
        cfg = small_cfg(total_iters=0, warmup_iters=0)
        dc = DecoderConfig(dim=16, num_classes=3, depth=1, heads=2, dropout=0.0)
        with pytest.raises(ShapeError, match="dataset has dim 8 but the head "
                                             "has dim 16"):
            train_stage1(train, cfg, dc, make_rng(0))

    def test_single_sample_memorization(self):
        ds = FeatureDataset(features=make_rng(0).standard_normal((1, 1, 6)),
                            labels=np.array([1]), num_classes=2, role="train")
        cfg = TrainConfig(seed=1, total_iters=200, batch_size=4,
                          warmup_iters=20, weight_decay=0.0)
        dc = DecoderConfig(dim=6, num_classes=2, depth=1, heads=2, dropout=0.0)
        with pytest.warns(UserWarning, match="zero training samples"):
            _, log = train_stage1(ds, cfg, dc, make_rng(cfg.seed))
        assert log[-1] < 1e-3

    def test_seed_determinism_bitwise(self):
        train, _ = tiny_problem(balanced=False)
        cfg = small_cfg(loss="bsm")
        dc = DecoderConfig(dim=8, num_classes=3, depth=2, heads=2, dropout=0.5)
        a, log_a = train_stage1(train, cfg, dc, make_rng(cfg.seed))
        b, log_b = train_stage1(train, cfg, dc, make_rng(cfg.seed))
        for (_, pa), (_, pb) in zip(a.params.items(), b.params.items()):
            npt.assert_array_equal(pa, pb)
        npt.assert_array_equal(log_a, log_b)

    def test_divergence_raises(self):
        train, _ = tiny_problem()
        cfg = small_cfg(lr0=1e30, weight_decay=0.0)
        dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="iteration"):
                train_stage1(train, cfg, dc, make_rng(0))

    def test_loss_decreases_on_easy_problem(self):
        train, _ = tiny_problem()
        cfg = small_cfg(total_iters=150, warmup_iters=10)
        dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.0)
        _, log = train_stage1(train, cfg, dc, make_rng(2))
        assert np.mean(log[-10:]) < np.mean(log[:10])

    def test_peak_memory_holds_one_forward_cache(self):
        # Each forward overwrites the previous one's cache block by block, so
        # stage one never holds two caches. The backward drops each gradient
        # once consumed, so its own temporaries stay under a quarter of the
        # cache at depth 3.
        spec = SyntheticSpec(num_classes=4, head_count=40, imbalance_ratio=2.0,
                             dim=32, tokens=8, separation=2.0, noise=0.5,
                             test_per_class=2, seed=0)
        train, _ = generate_synthetic_lt(spec)
        dc = DecoderConfig(dim=32, num_classes=4, depth=3, heads=4, dropout=0.5)
        cfg = small_cfg(total_iters=4, batch_size=64, warmup_iters=1)
        head = init_decoder(dc, make_rng(0))
        _, cache = forward_batch(head, train.features[:64], make_rng(1), True)
        cache_bytes = sum(a.nbytes for a in _cache_arrays(cache))
        vectors_bytes = 3 * head.params.vector.nbytes  # params, grads, velocity
        del head, cache
        tracemalloc.start()
        try:
            train_stage1(train, cfg, dc, make_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cache_bytes + vectors_bytes

    def test_peak_at_the_tok8_shape(self):
        # B=256, T=8, D=64, depth 3: with a bool dropout mask and no cached
        # attention context two iterations peak near 54.5 MB; a float64 mask
        # plus a cached context would take them to about 60.4 MB.
        spec = SyntheticSpec(num_classes=50, head_count=20, imbalance_ratio=4.0,
                             dim=64, tokens=8, test_per_class=1, seed=0)
        train, _ = generate_synthetic_lt(spec)
        dc = DecoderConfig(dim=64, num_classes=50, depth=3, heads=4, dropout=0.5)
        cfg = small_cfg(total_iters=2, batch_size=256, warmup_iters=1)
        tracemalloc.start()
        try:
            train_stage1(train, cfg, dc, make_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 57.5e6


class TestTrainStage2:
    @staticmethod
    def _trained_head(train, seed=0):
        cfg = small_cfg(seed=seed, total_iters=60, warmup_iters=8)
        dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.0)
        head, _ = train_stage1(train, cfg, dc, make_rng(cfg.seed))
        return head, cfg

    def test_zero_iterations_identity_metrics(self):
        train, test = tiny_problem()
        head, cfg = self._trained_head(train)
        stats = build_class_stats(train.labels, 3)
        base = evaluate(head, None, test, stats)
        for variant in ("lws", "disalign", "marc"):
            cal, log = train_stage2(head, train, small_cfg(stage2_iters=0),
                                    variant, make_rng(5))
            rep = evaluate(head, cal, test, stats)
            assert rep.overall == base.overall
            npt.assert_array_equal(rep.per_class_accuracy,
                                   base.per_class_accuracy)
            assert log.size == 0

    def test_lws_scales_stay_near_one_on_balanced_data(self):
        train, _ = tiny_problem()
        head, cfg = self._trained_head(train)
        cal, _ = train_stage2(head, train, small_cfg(stage2_iters=512),
                              "lws", make_rng(6))
        assert np.all(np.abs(cal.scales - 1.0) < 0.1)

    def test_stage2_seed_determinism(self):
        train, _ = tiny_problem(balanced=False)
        head, cfg = self._trained_head(train)
        a, _ = train_stage2(head, train, small_cfg(stage2_iters=40), "marc",
                            make_rng(7))
        b, _ = train_stage2(head, train, small_cfg(stage2_iters=40), "marc",
                            make_rng(7))
        npt.assert_array_equal(a.omega, b.omega)
        npt.assert_array_equal(a.beta, b.beta)

    def test_crt_trains_fresh_classifier(self):
        train, test = tiny_problem()
        head, cfg = self._trained_head(train)
        cal, _ = train_stage2(head, train, small_cfg(stage2_iters=200), "crt",
                              make_rng(8))
        stats = build_class_stats(train.labels, 3)
        rep = evaluate(head, cal, test, stats)
        assert rep.overall > 0.5  # the fresh classifier actually learned

    @staticmethod
    def _forbid_forward(monkeypatch):
        def forward(*args, **kwargs):
            raise AssertionError("a forward pass ran")
        monkeypatch.setattr("lthead.training.forward_batch", forward)

    def test_stage_two_runs_no_classifier_forward(self, monkeypatch):
        train, _ = tiny_problem()
        head, _ = self._trained_head(train)
        self._forbid_forward(monkeypatch)
        for variant in CALIBRATOR_VARIANTS:
            train_stage2(head, train, small_cfg(stage2_iters=5), variant,
                         make_rng(0))

    def test_pooling_pass_peak_at_inaturalist_class_count(self):
        # iNaturalist18's K. The pooling pass applies no classifier, so stage
        # two's peak stays far below one (EVAL_CHUNK, K) logit array; a pass
        # that classified every chunk would hold two of them, 66.7 MB.
        k = 8142  # one training row per class
        ds = FeatureDataset(features=make_rng(0).standard_normal((k, 1, 16)),
                            labels=np.arange(k), num_classes=k)
        head = init_decoder(DecoderConfig(dim=16, num_classes=k, depth=1,
                                          heads=2), make_rng(0))
        tracemalloc.start()
        try:
            train_stage2(head, ds, small_cfg(stage2_iters=0), "marc", make_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < EVAL_CHUNK * k * 8 / 4

    def test_unknown_variant(self, monkeypatch):
        train, _ = tiny_problem()
        head, _ = self._trained_head(train)
        self._forbid_forward(monkeypatch)
        with pytest.raises(ConfigError, match="unknown calibrator variant "
                                              "'platt'"):
            train_stage2(head, train, small_cfg(), "platt", make_rng(0))

    @pytest.mark.parametrize("variant", CALIBRATOR_VARIANTS)
    def test_divergence_raises(self, variant):
        # a fresh head keeps every variant's loss, and so its gradient, large
        train, _ = tiny_problem()
        dc = DecoderConfig(dim=8, num_classes=3, depth=1, heads=2, dropout=0.0)
        head = init_decoder(dc, make_rng(0))
        cfg = small_cfg(lr0=1e308, weight_decay=0.0, warmup_iters=0,
                        stage2_iters=30)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="stage-2 iteration"):
                train_stage2(head, train, cfg, variant, make_rng(0))

    def test_class_count_mismatch_rejected_before_any_forward(self,
                                                              monkeypatch):
        train, _ = tiny_problem()
        head, _ = self._trained_head(train)
        other, _ = tiny_problem(num_classes=4)
        self._forbid_forward(monkeypatch)
        with pytest.raises(ShapeError, match="dataset has 4 classes but "
                                             "the head has 3"):
            train_stage2(head, other, small_cfg(), "marc", make_rng(0))

    def test_width_mismatch_rejected_before_any_forward(self, monkeypatch):
        # crt draws its fresh classifier before the dataset is checked
        train, _ = tiny_problem()
        head, _ = self._trained_head(train)
        narrow, _ = tiny_problem(dim=4)
        self._forbid_forward(monkeypatch)
        with pytest.raises(ShapeError, match="dataset has dim 4 but the head "
                                             "has dim 8"):
            train_stage2(head, narrow, small_cfg(), "crt", make_rng(0))


class TestEvaluate:
    def test_all_correct(self):
        stats = build_class_stats(np.array([0, 0, 1, 1, 2]), 3)
        labels = np.array([0, 1, 2, 0, 1, 2])
        rep = metrics_from_predictions(labels, labels, stats)
        assert rep.overall == 1.0
        assert rep.precision == 1.0 and rep.recall == 1.0 and rep.f1 == 1.0

    def test_always_class_zero_analytic(self):
        # balanced binary test set, constant predictor
        stats = build_class_stats(np.array([0, 1]), 2)
        labels = np.array([0] * 10 + [1] * 10)
        preds = np.zeros(20, dtype=np.int64)
        rep = metrics_from_predictions(preds, labels, stats)
        assert rep.overall == pytest.approx(0.5, abs=1e-15)
        assert rep.f1 == pytest.approx((2 / 3 + 0.0) / 2, abs=1e-15)
        assert rep.precision == pytest.approx(0.25, abs=1e-15)
        assert rep.recall == pytest.approx(0.5, abs=1e-15)

    def test_matches_confusion_matrix_oracle_exactly(self):
        rng = make_rng(9)
        k = 6
        stats = build_class_stats(np.concatenate(
            [np.arange(k), rng.integers(0, k, 400)]), k)
        labels = rng.integers(0, k, size=1000)
        preds = rng.integers(0, k, size=1000)
        rep = metrics_from_predictions(preds, labels, stats)

        # brute-force oracle: dict-of-dicts confusion matrix and loops
        confusion = [[0] * k for _ in range(k)]
        for y, p in zip(labels, preds):
            confusion[y][p] += 1
        per_prec, per_rec, per_f1 = [], [], []
        for j in range(k):
            support = sum(confusion[j])
            predicted = sum(confusion[i][j] for i in range(k))
            tp = confusion[j][j]
            rec = tp / support
            prec = tp / predicted if predicted else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            per_prec.append(prec)
            per_rec.append(rec)
            per_f1.append(f1)
        overall = sum(confusion[j][j] for j in range(k)) / 1000

        assert rep.overall == overall
        assert rep.precision == sum(per_prec) / k
        assert rep.recall == sum(per_rec) / k
        assert rep.f1 == sum(per_f1) / k
        npt.assert_array_equal(rep.per_class_accuracy, per_rec)

    def test_macro_recall_equals_overall_on_balanced_test(self):
        rng = make_rng(10)
        k = 7
        stats = build_class_stats(np.concatenate(
            [np.arange(k), rng.integers(0, k, 300)]), k)
        labels = np.repeat(np.arange(k), 40)
        preds = rng.integers(0, k, size=labels.size)
        rep = metrics_from_predictions(preds, labels, stats)
        assert abs(rep.recall - rep.overall) < 1e-12

    def test_group_accuracies_average_member_classes(self):
        stats = build_class_stats(
            np.repeat(np.arange(3), [150, 50, 5]), 3)  # many, medium, few
        labels = np.repeat(np.arange(3), 4)
        preds = labels.copy()
        preds[0] = 1  # one mistake in the many class
        rep = metrics_from_predictions(preds, labels, stats)
        assert rep.many == pytest.approx(0.75, abs=1e-15)
        assert rep.medium == 1.0 and rep.few == 1.0

    def test_empty_test_class_warns_and_excluded(self):
        stats = build_class_stats(np.array([0, 0, 1, 1, 2, 2]), 3)
        labels = np.array([0, 0, 1, 1])  # class 2 missing
        preds = np.array([0, 0, 1, 0])
        with pytest.warns(UserWarning, match="no test samples"):
            rep = metrics_from_predictions(preds, labels, stats)
        assert math.isnan(rep.per_class_accuracy[2])
        assert rep.recall == pytest.approx((1.0 + 0.5) / 2, abs=1e-15)

    def test_rates_within_unit_interval(self):
        rng = make_rng(11)
        stats = build_class_stats(np.concatenate(
            [np.arange(4), rng.integers(0, 4, 100)]), 4)
        labels = rng.integers(0, 4, 200)
        preds = rng.integers(0, 4, 200)
        rep = metrics_from_predictions(preds, labels, stats)
        for value in (rep.overall, rep.many, rep.medium, rep.few,
                      rep.precision, rep.recall, rep.f1):
            if not math.isnan(value):
                assert 0.0 <= value <= 1.0

    def test_argmax_invariant_to_monotone_logit_transforms(self):
        rng = make_rng(12)
        logits = rng.standard_normal((50, 4))
        base = np.argmax(logits, axis=1)
        npt.assert_array_equal(np.argmax(3.0 * logits + 1.0, axis=1), base)
        npt.assert_array_equal(np.argmax(np.tanh(logits), axis=1), base)
        stats = build_class_stats(np.concatenate(
            [np.arange(4), rng.integers(0, 4, 60)]), 4)
        labels = rng.integers(0, 4, 50)
        a = metrics_from_predictions(np.argmax(logits, axis=1), labels, stats)
        b = metrics_from_predictions(np.argmax(np.tanh(logits), axis=1),
                                     labels, stats)
        assert report_json(a) == report_json(b)

    def test_unbalanced_test_set_warns(self):
        train, _ = tiny_problem()
        cfg = small_cfg(total_iters=5, warmup_iters=1)
        dc = DecoderConfig(dim=8, num_classes=3, depth=0, heads=1, dropout=0.0)
        head, _ = train_stage1(train, cfg, dc, make_rng(0))
        stats = build_class_stats(train.labels, 3)
        lopsided = FeatureDataset(
            features=make_rng(1).standard_normal((5, 1, 8)),
            labels=np.array([0, 0, 0, 1, 2]), num_classes=3, role="test")
        with pytest.warns(UserWarning, match="not class-balanced"):
            evaluate(head, None, lopsided, stats)

    def test_report_render_and_json(self):
        stats = build_class_stats(np.array([0, 1]), 2)
        rep = metrics_from_predictions(np.array([0, 1]), np.array([0, 1]), stats)
        text = render_report(rep)
        assert "overall" in text and "1.000000" in text
        assert '"overall": 1.0' in report_json(rep)


@st.composite
def eval_cases(draw):
    """Labels that may miss classes, predictions that may never name some,
    and training counts whose groups range from few only to all three."""
    k = draw(st.integers(1, 300))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = rng.integers(0, draw(st.sampled_from([20, 101, 300])), k)
    counts[0] += 1
    n = draw(st.integers(1, 3 * k))
    label_pool = rng.choice(k, draw(st.integers(1, k)), replace=False)
    pred_pool = rng.choice(k, draw(st.integers(1, k)), replace=False)
    labels = rng.choice(label_pool, n)
    preds = rng.choice(pred_pool, n)
    hits = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9]))
    preds[hits] = labels[hits]
    return preds, labels, stats_from_counts(counts)


def oracle_report(preds, labels, stats) -> EvalReport:
    """Loop-built confusion and sequential sums over the classes present."""
    k = stats.num_classes
    confusion = [[0] * k for _ in range(k)]
    for y, p in zip(labels.tolist(), preds.tolist()):
        confusion[y][p] += 1

    def seq_mean(values):
        total = 0.0
        for v in values:
            total += v
        return total / len(values) if values else float("nan")

    per_class = [float("nan")] * k
    recs, precs, f1s = [], [], []
    groups = {"many": [], "medium": [], "few": []}
    for j in range(k):
        support = sum(confusion[j])
        if support == 0:
            continue
        predicted = sum(confusion[i][j] for i in range(k))
        tp = confusion[j][j]
        rec = tp / support
        prec = tp / predicted if predicted else 0.0
        per_class[j] = rec
        recs.append(rec)
        precs.append(prec)
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        groups[str(stats.groups[j])].append(rec)
    return EvalReport(
        overall=sum(confusion[j][j] for j in range(k)) / len(labels),
        many=seq_mean(groups["many"]), medium=seq_mean(groups["medium"]),
        few=seq_mean(groups["few"]), precision=seq_mean(precs),
        recall=seq_mean(recs), f1=seq_mean(f1s),
        per_class_accuracy=np.array(per_class))


class TestMetricsFromCounts:
    @settings(derandomize=True, deadline=None)
    @given(eval_cases())
    def test_matches_loop_oracle_bitwise(self, case):
        preds, labels, stats = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = metrics_from_predictions(preds, labels, stats)
        want = oracle_report(preds, labels, stats)
        for name in ("overall", "many", "medium", "few",
                     "precision", "recall", "f1"):
            assert struct.pack("<d", getattr(rep, name)) == \
                struct.pack("<d", getattr(want, name)), name
        npt.assert_array_equal(rep.per_class_accuracy.view(np.uint64),
                               want.per_class_accuracy.view(np.uint64))

    def test_peak_memory_at_inat18_shape(self):
        # iNaturalist18: 8,142 classes, 24,426 validation images. A K x K
        # int64 confusion matrix alone would take 530 MB.
        k, n = 8142, 24426
        rng = make_rng(13)
        stats = stats_from_counts(rng.integers(1, 1000, k))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        preds = np.where(rng.random(n) < 0.6, labels, rng.integers(0, k, n))
        tracemalloc.start()
        try:
            metrics_from_predictions(preds, labels, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestCheckpointRoundTrip:
    def test_bit_exact_and_eval_identical(self, tmp_path):
        train, test = tiny_problem(balanced=False)
        cfg = small_cfg(total_iters=40, warmup_iters=5, loss="bsm")
        dc = DecoderConfig(dim=8, num_classes=3, depth=2, heads=2, dropout=0.5)
        head, _ = train_stage1(train, cfg, dc, make_rng(cfg.seed))
        cal, _ = train_stage2(head, train, small_cfg(stage2_iters=30), "disalign",
                              make_rng(3))
        stats = build_class_stats(train.labels, 3)
        before = evaluate(head, cal, test, stats)

        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, head, stats.counts, calibrator=cal)
        head2, stats2, cal2 = load_checkpoint(path)
        for (_, a), (_, b) in zip(head.params.items(), head2.params.items()):
            npt.assert_array_equal(a, b)
        npt.assert_array_equal(stats.counts, stats2.counts)
        for name, arr in cal.param_dict().items():
            npt.assert_array_equal(arr, cal2.param_dict()[name])

        after = evaluate(head2, cal2, test, stats2)
        assert report_json(before) == report_json(after)  # bit-identical report
        path2 = tmp_path / "ckpt2.bin"
        save_checkpoint(path2, head2, stats2.counts, calibrator=cal2)
        assert path.read_bytes() == path2.read_bytes()

    def test_no_calibrator_round_trip(self, tmp_path):
        train, _ = tiny_problem()
        cfg = small_cfg(total_iters=5, warmup_iters=1)
        dc = DecoderConfig(dim=8, num_classes=3, depth=0, heads=1, dropout=0.0)
        head, _ = train_stage1(train, cfg, dc, make_rng(0))
        path = tmp_path / "h.bin"
        save_checkpoint(path, head, np.array([10, 10, 10]))
        head2, stats2, cal2 = load_checkpoint(path)
        assert cal2 is None
        npt.assert_array_equal(head.cls_weight, head2.cls_weight)


def _cosines(images, emb):
    return (images / np.linalg.norm(images, axis=1, keepdims=True)) @ emb.matrix.T


class TestZeroShot:
    def test_identical_class_embeddings_uniform(self):
        # every class row normalizes to one vector, so each image's cosines
        # are equal and their softmax is uniform
        k, d = 4, 6
        emb = TextClassEmbeddings.from_matrix(np.tile(make_rng(0).standard_normal(d),
                                                      (k, 1)))
        images = make_rng(1).standard_normal((3, d))
        preds = zero_shot_classify(images, emb)
        npt.assert_allclose(softmax_rows(_cosines(images, emb)), 1.0 / k,
                            rtol=0, atol=1e-12)
        assert preds.shape == (3,) and np.all((preds >= 0) & (preds < k))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_class_embeddings_rejected(self, bad):
        # 1e200 is finite, but its squared norm overflows to inf
        matrix = np.eye(3)
        matrix[1, 2] = bad
        with np.errstate(over="ignore"), pytest.raises(DataError, match="finite"):
            TextClassEmbeddings.from_matrix(matrix)

    def test_orthonormal_analytic(self):
        emb = TextClassEmbeddings.from_matrix(np.eye(3))
        preds = zero_shot_classify(np.eye(3)[:1], emb)
        probs = softmax_rows(np.eye(3)[:1] @ emb.matrix.T)
        expected = math.e / (math.e + 2)
        assert probs[0, 0] == pytest.approx(expected, abs=1e-12)
        assert preds[0] == 0

    def test_matches_direct_formula_oracle(self):
        rng = make_rng(2)
        k, d, n = 5, 7, 20
        class_mat = rng.standard_normal((k, d))
        images = rng.standard_normal((n, d))
        emb = TextClassEmbeddings.from_matrix(class_mat)
        preds = zero_shot_classify(images, emb)

        for i in range(n):
            cos = np.empty(k)
            for j in range(k):
                tj = class_mat[j] / np.linalg.norm(class_mat[j])
                im = images[i] / np.linalg.norm(images[i])
                cos[j] = float(np.dot(tj, im))
            top2 = np.sort(cos)[-2:]
            assert top2[1] - top2[0] > 1e-9  # no near tie for rounding to flip
            assert preds[i] == np.argmax(cos)

    def test_image_rescale_invariance(self):
        rng = make_rng(3)
        emb = TextClassEmbeddings.from_matrix(rng.standard_normal((4, 5)))
        images = rng.standard_normal((6, 5))
        npt.assert_array_equal(zero_shot_classify(images, emb),
                               zero_shot_classify(images * 37.5, emb))

    def test_zero_norm_image_rejected(self):
        emb = TextClassEmbeddings.from_matrix(np.eye(3))
        with pytest.raises(DataError):
            zero_shot_classify(np.zeros((1, 3)), emb)

    def test_unit_norm_rows(self):
        emb = TextClassEmbeddings.from_matrix(make_rng(4).standard_normal((6, 9)))
        norms = np.linalg.norm(emb.matrix, axis=1)
        npt.assert_allclose(norms, 1.0, rtol=0, atol=1e-9)

    def test_predictions_equal_cosine_argmax(self):
        # 1,100 rows are three EVAL_CHUNKs, the last one partial
        rng = make_rng(6)
        emb = TextClassEmbeddings.from_matrix(rng.standard_normal((5, 8)))
        for n in (200, 1100):
            images = rng.standard_normal((n, 8))
            preds = zero_shot_classify(images, emb)
            assert preds.shape == (n,) and preds.dtype == np.int64
            npt.assert_array_equal(preds, np.argmax(_cosines(images, emb), axis=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_images_rejected(self, bad):
        # 1e200 is finite, but its squared norm overflows to inf; row 700
        # sits in the second EVAL_CHUNK
        emb = TextClassEmbeddings.from_matrix(np.eye(3))
        for row in (1, 700):
            images = np.tile(np.eye(3), (300, 1))
            images[row] = [0.0, 0.0, bad]
            with np.errstate(over="ignore"), pytest.raises(
                    DataError, match="image embeddings must have finite, nonzero norms"):
                zero_shot_classify(images, emb)

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_peak_one_chunk_of_cosines(self, n):
        # one (EVAL_CHUNK, K) block of cosines lives at a time, plus the
        # predictions, so the peak does not grow with N*K
        k, d = 2000, 16
        rng = make_rng(7)
        emb = TextClassEmbeddings.from_matrix(rng.standard_normal((k, d)))
        images = rng.standard_normal((n, d))
        tracemalloc.start()
        try:
            zero_shot_classify(images, emb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * EVAL_CHUNK * k * 8 + 8 * n, peak / (EVAL_CHUNK * k * 8)


THREAD_RUN = """
import hashlib
from lthead import (DecoderConfig, SyntheticSpec, TrainConfig,
                    generate_synthetic_lt, make_rng, train_stage1)
spec = SyntheticSpec(num_classes=10, head_count=100, imbalance_ratio=10.0,
                     dim=64, tokens=4, seed=5)
train, _ = generate_synthetic_lt(spec)
cfg = TrainConfig(seed=1, total_iters=30, batch_size=256, warmup_iters=5)
dc = DecoderConfig(dim=64, num_classes=10, depth=2, heads=4, dropout=0.5)
head, log = train_stage1(train, cfg, dc, make_rng(cfg.seed))
print(hashlib.sha256(head.params.vector.tobytes()).hexdigest(),
      hashlib.sha256(log.tobytes()).hexdigest())
"""


@pytest.mark.bits
class TestThreadInvariance:
    def test_blas_thread_count_keeps_bits(self):
        # The documented guarantee is bit-exactness per machine and BLAS
        # kernel; the BLAS thread count must not change a trained head.
        import os
        import subprocess
        import sys
        from pathlib import Path
        src = str(Path(__file__).resolve().parents[1] / "src")
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", THREAD_RUN], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            hashes.append(proc.stdout.split())
        assert hashes[0] == hashes[1]


WIDE_THREAD_RUN = """
import sys
from lthead import (DecoderConfig, SyntheticSpec, TrainConfig,
                    generate_synthetic_lt, make_rng, train_stage1)
spec = SyntheticSpec(num_classes=500, head_count=20, imbalance_ratio=10.0,
                     dim=64, tokens=1, seed=5)
train, _ = generate_synthetic_lt(spec)
cfg = TrainConfig(seed=1, total_iters=3, batch_size=256, warmup_iters=1)
dc = DecoderConfig(dim=64, num_classes=500, depth=1, heads=4, dropout=0.5)
head, _ = train_stage1(train, cfg, dc, make_rng(cfg.seed))
sys.stdout.buffer.write(head.params.vector.tobytes())
"""


@pytest.mark.bits
class TestWideClassifierThreads:
    def test_two_threads_stay_within_rounding_at_k500(self):
        # The README's narrowed guarantee: once the classifier is wide
        # enough for the BLAS to split its GEMMs across threads, the thread
        # count may change low bits, and at K=500 three stage-one
        # iterations leave every parameter within 1e-12 of the one-thread run.
        import os
        import subprocess
        from pathlib import Path
        src = str(Path(__file__).resolve().parents[1] / "src")
        vectors = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", WIDE_THREAD_RUN],
                                  env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            vectors.append(np.frombuffer(proc.stdout, dtype=np.float64))
        size = param_count(DecoderConfig(dim=64, num_classes=500, depth=1, heads=4))
        assert vectors[0].shape == vectors[1].shape == (size,)
        assert np.all(np.isfinite(vectors[0]))
        assert np.max(np.abs(vectors[0] - vectors[1])) <= 1e-12


LARGE_K_RUN = """
import resource
from lthead import (DecoderConfig, SyntheticSpec, TrainConfig,
                    build_class_stats, evaluate, generate_synthetic_lt,
                    init_decoder, make_rng, train_stage2)
k = 8142
spec = SyntheticSpec(num_classes=k, head_count=10, imbalance_ratio=10.0,
                     dim=16, test_per_class=3, seed=3)
train, test = generate_synthetic_lt(spec)
head = init_decoder(DecoderConfig(dim=16, num_classes=k, depth=1, heads=2),
                    make_rng(0))
stats = build_class_stats(train.labels, k)
cfg = TrainConfig(total_iters=0, warmup_iters=0, stage2_iters=3)
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
evaluate(head, None, test, stats)
for variant in ("marc", "crt", "disalign"):
    cal, _ = train_stage2(head, train, cfg, variant, make_rng(1))
    evaluate(head, cal, test, stats)
print(train.num_samples, test.num_samples, base,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestLargeClassCount:
    @pytest.mark.slow
    @pytest.mark.skipif(sys.platform != "linux",
                        reason="ru_maxrss is in KiB on Linux only")
    def test_stage_two_and_eval_memory_independent_of_n_times_k(self):
        # iNaturalist18's 8,142 classes. Stage two keeps the (N, D) pooled
        # features and evaluate one EVAL_CHUNK of logits, so the peak may
        # grow with N*D and EVAL_CHUNK*K; an (N, K) logit matrix is 2 GB here.
        import os
        import subprocess
        from pathlib import Path
        from lthead.training import EVAL_CHUNK
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", LARGE_K_RUN], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        n_train, n_test, base_kib, peak_kib = map(int, proc.stdout.split())
        k, d = 8142, 16
        assert n_train > 30_000 and n_test > 24_000
        limit = 8 * (2 * n_train * d + 8 * EVAL_CHUNK * k)
        assert limit < 8 * n_test * k / 4  # far below either (N, K) matrix
        assert (peak_kib - base_kib) * 1024 <= limit, (base_kib, peak_kib)
