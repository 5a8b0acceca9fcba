"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The synthetic benchmark (criterion 5) trains two full stage-one heads and one
stage-two calibrator and takes a few minutes; everything else is fast.
"""

import math
import time

import numpy as np
import pytest

from lthead import (DecoderConfig, SyntheticSpec, TextClassEmbeddings,
                    TrainConfig, build_class_stats, evaluate, generate_synthetic_lt, init_calibrator,
                    load_checkpoint, load_features, lr_at,
                    make_loss_spec, make_rng, metrics_from_predictions,
                    run_gradcheck, sample_batch, save_checkpoint,
                    save_features, stats_from_counts, total_loss,
                    train_stage1, train_stage2, zero_shot_classify)
from lthead.calibrators import apply_batch
from lthead.data import CLASS_BALANCED, INSTANCE_BALANCED, FeatureDataset
from lthead.training import report_json

LN2 = math.log(2.0)


def record(num: int, description: str, passed: bool) -> bool:
    print(f"\ncriterion {num} ({description}): {'PASS' if passed else 'FAIL'}")
    return passed


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    results = run_gradcheck("all", tol=1e-5)
    elapsed = time.perf_counter() - start
    all_passed = all(r.report.passed for r in results)
    covers = {name.split(".")[0] for name in (r.name for r in results)}
    ok = all_passed and covers == {"losses", "decoder", "calibrators"} \
        and elapsed < 60.0
    assert record(1, f"gradient suite, {len(results)} checks in {elapsed:.1f}s", ok)


def test_criterion_2_reduction_equivalences():
    rng = make_rng(21)
    stats_lt = stats_from_counts(np.array([120, 45, 9, 370, 2]))
    stats_eq = stats_from_counts(np.array([50, 50, 50, 50, 50]))
    ok = True
    for _ in range(100):
        logits = rng.standard_normal((8, 5)) * 2
        labels = rng.integers(0, 5, size=8)

        pairs = [
            (make_loss_spec("focal", stats_lt, gamma=0.0),
             make_loss_spec("ce", stats_lt), stats_lt),
            (make_loss_spec("ldam", stats_lt, max_margin=0.0),
             make_loss_spec("ce", stats_lt), stats_lt),
            (make_loss_spec("cbw", stats_eq),
             make_loss_spec("ce", stats_eq), stats_eq),
            (make_loss_spec("bsm", stats_eq),
             make_loss_spec("ce", stats_eq), stats_eq),
            (make_loss_spec("lade", stats_lt, lam=0.0),
             make_loss_spec("bsm", stats_lt), stats_lt),
        ]
        for spec_a, spec_b, stats in pairs:
            va, ga = total_loss(spec_a, logits, labels)
            vb, gb = total_loss(spec_b, logits, labels)
            ok &= abs(va - vb) < 1e-12 and np.max(np.abs(ga - gb)) < 1e-12

        pooled = rng.standard_normal(6)
        raw = rng.standard_normal(5)
        norms = np.abs(rng.standard_normal(5)) + 0.1
        for variant in ("lws", "disalign", "marc"):
            cal = init_calibrator(variant, 5, 6, make_rng(0))
            adjusted, _ = apply_batch(cal, pooled[None], raw[None], norms)
            ok &= np.max(np.abs(adjusted[0] - raw)) < 1e-12
    assert record(2, "reduction equivalences on 100 random batches", ok)


def test_criterion_3_analytic_values():
    checks = []
    stats2 = stats_from_counts(np.array([1, 1]))
    value, dlogits = total_loss(make_loss_spec("ce", stats2),
                                np.zeros((1, 2)), np.array([0]))
    checks.append(abs(value - LN2) < 1e-12)
    checks.append(np.max(np.abs(dlogits - [[-0.5, 0.5]])) < 1e-12)

    value_f, _ = total_loss(make_loss_spec("focal", stats2, gamma=2.0),
                            np.zeros((1, 2)), np.array([0]))
    checks.append(abs(value_f - 0.25 * LN2) < 1e-12)

    from lthead import bsm_biases, ldam_margins, softmax_rows
    stats_bsm = stats_from_counts(np.array([100, 1]))
    probs = softmax_rows(bsm_biases(stats_bsm)[None, :])
    checks.append(np.max(np.abs(probs - [[100 / 101, 1 / 101]])) < 1e-12)

    margins = ldam_margins(stats_from_counts(np.array([16, 1])), max_margin=1.0)
    checks.append(np.max(np.abs(margins - [0.5, 1.0])) < 1e-12)

    cfg = TrainConfig()
    checks.append(abs(lr_at(cfg, 512) - 0.03) < 1e-12)
    checks.append(abs(lr_at(cfg, 4352) - 0.015) < 1e-12)
    ok = all(checks)
    assert record(3, "analytic loss/schedule values", ok)


def test_criterion_4_sampler_statistics():
    start = time.perf_counter()
    labels = np.repeat([0, 1], [3, 1])
    ds = FeatureDataset(features=np.zeros((4, 1, 2)), labels=labels,
                        num_classes=2, role="train")
    stats = build_class_stats(labels, 2)
    draws = 10 ** 5

    idx = sample_batch(ds, CLASS_BALANCED, draws, make_rng(41))
    freq_cb = float(np.mean(ds.labels[idx] == 0))
    sigma_cb = math.sqrt(0.5 * 0.5 / draws)

    idx = sample_batch(ds, INSTANCE_BALANCED, draws, make_rng(42))
    freq_ib = float(np.mean(ds.labels[idx] == 0))
    sigma_ib = math.sqrt(0.75 * 0.25 / draws)

    elapsed = time.perf_counter() - start
    ok = (abs(freq_cb - 0.5) < 3 * sigma_cb
          and abs(freq_ib - 0.75) < 3 * sigma_ib
          and elapsed < 5.0)
    assert record(4, f"sampler statistics (cb={freq_cb:.4f}, ib={freq_ib:.4f}, "
                     f"{elapsed:.2f}s)", ok)


@pytest.mark.slow
def test_criterion_5_synthetic_longtail_benchmark():
    start = time.perf_counter()
    spec = SyntheticSpec(num_classes=50, head_count=500, imbalance_ratio=100.0,
                         dim=64, tokens=1, separation=1.0, noise=2.0,
                         test_per_class=20, seed=7)
    train, test = generate_synthetic_lt(spec)
    stats = build_class_stats(train.labels, 50)
    decoder_config = DecoderConfig(dim=64, num_classes=50)

    cfg_ce = TrainConfig(seed=11, loss="ce")
    head_ce, _ = train_stage1(train, cfg_ce, decoder_config, make_rng(cfg_ce.seed))
    rep_ce = evaluate(head_ce, None, test, stats)

    cfg_bsm = TrainConfig(seed=11, loss="bsm")
    head_bsm, _ = train_stage1(train, cfg_bsm, decoder_config, make_rng(cfg_bsm.seed))
    rep_bsm = evaluate(head_bsm, None, test, stats)

    cal, _ = train_stage2(head_ce, train, cfg_ce, "marc", make_rng(13))
    rep_marc = evaluate(head_ce, cal, test, stats)

    elapsed = time.perf_counter() - start
    bsm_gap = rep_bsm.few - rep_ce.few
    marc_overall_gap = rep_marc.overall - rep_ce.overall
    ok = (bsm_gap >= 0.10
          and marc_overall_gap >= -0.005
          and rep_marc.few > rep_ce.few
          and elapsed < 300.0)
    assert record(
        5, "synthetic long-tail benchmark "
           f"(CE few {rep_ce.few:.3f}, BSM few {rep_bsm.few:.3f}, "
           f"MARC overall {rep_marc.overall:.3f} vs CE {rep_ce.overall:.3f}, "
           f"{elapsed:.0f}s)", ok)


def test_criterion_6_metric_oracle():
    rng = make_rng(61)
    k = 9
    stats = build_class_stats(np.concatenate(
        [np.arange(k), rng.integers(0, k, 600)]), k)
    labels = rng.integers(0, k, size=1000)
    preds = rng.integers(0, k, size=1000)
    rep = metrics_from_predictions(preds, labels, stats)

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
        per_prec.append(prec)
        per_rec.append(rec)
        per_f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    ok = (rep.overall == sum(confusion[j][j] for j in range(k)) / 1000
          and rep.precision == sum(per_prec) / k
          and rep.recall == sum(per_rec) / k
          and rep.f1 == sum(per_f1) / k
          and np.array_equal(rep.per_class_accuracy, per_rec))

    # balanced test set: macro recall must equal overall accuracy
    bal_labels = np.repeat(np.arange(k), 30)
    bal_preds = rng.integers(0, k, size=bal_labels.size)
    bal = metrics_from_predictions(bal_preds, bal_labels, stats)
    ok &= abs(bal.recall - bal.overall) < 1e-12
    assert record(6, "metric oracle and balanced-recall identity", ok)


def test_criterion_7_determinism_and_persistence(tmp_path):
    spec = SyntheticSpec(num_classes=5, head_count=60, imbalance_ratio=10.0,
                         dim=8, separation=1.5, noise=1.0, test_per_class=8,
                         seed=71)
    train, test = generate_synthetic_lt(spec)
    stats = build_class_stats(train.labels, 5)
    cfg = TrainConfig(seed=5, total_iters=50, batch_size=16, warmup_iters=5,
                      loss="bsm", stage2_iters=30)
    decoder_config = DecoderConfig(dim=8, num_classes=5, depth=2, heads=2,
                                   dropout=0.5)

    paths = []
    reports = []
    for run in range(2):
        head, _ = train_stage1(train, cfg, decoder_config, make_rng(cfg.seed))
        cal, _ = train_stage2(head, train, cfg, "marc", make_rng(6))
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(path, head, stats.counts, calibrator=cal)
        paths.append(path)
        reports.append(report_json(evaluate(head, cal, test, stats)))
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    ok &= reports[0] == reports[1]

    # checkpoint round trip is bit-exact and evaluates identically
    head2, stats2, cal2 = load_checkpoint(paths[0])
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, head2, stats2.counts, calibrator=cal2)
    ok &= resaved.read_bytes() == paths[0].read_bytes()
    ok &= report_json(evaluate(head2, cal2, test, stats2)) == reports[0]

    # feature files round trip bit-exactly
    fpath = tmp_path / "train.bin"
    save_features(train, fpath)
    loaded = load_features(fpath)
    fpath2 = tmp_path / "train2.bin"
    save_features(loaded, fpath2)
    ok &= fpath.read_bytes() == fpath2.read_bytes()
    assert record(7, "determinism and bit-exact persistence", ok)


def test_criterion_8_zero_shot():
    # predictions from zero_shot_classify, probabilities from softmax_rows
    # over the same cosines
    from lthead import softmax_rows
    ok = True
    for k in (2, 3, 10):
        emb = TextClassEmbeddings.from_matrix(np.eye(k))
        preds = zero_shot_classify(np.eye(k)[:1], emb)
        probs = softmax_rows(np.eye(k)[:1] @ emb.matrix.T)
        expected = math.e / (math.e + k - 1)
        ok &= abs(probs[0, 0] - expected) < 1e-12
        ok &= preds[0] == 0
    assert record(8, "zero-shot orthonormal probabilities", ok)
