"""Raise sites that no other test reaches: each call must fail with the
given exception type and message."""

import math
import os

import numpy as np
import pytest

from lthead import (CLASS_BALANCED, ConfigError, DataError, DecoderConfig,
                    DomainError, EvaluationError, FeatureDataset, FormatError,
                    ShapeError, StateError, SyntheticSpec, TextClassEmbeddings,
                    TrainConfig, backward_batch, build_class_stats,
                    finite_diff_check, forward_batch, init_calibrator,
                    init_decoder, make_loss_spec, make_rng,
                    metrics_from_predictions, parse_run_config, read_text_rows,
                    run_gradcheck, sample_batch, softmax_rows,
                    stats_from_counts, total_loss, zero_shot_classify)
from lthead.calibrators import apply_batch
from lthead.decoder import pool_batch

STATS = stats_from_counts([5, 3, 1])
SPEC = make_loss_spec("ce", STATS)
LABELS = np.array([0, 2])
HEAD = init_decoder(DecoderConfig(dim=8, num_classes=3, depth=1, heads=2),
                    make_rng(0))
CACHE = forward_batch(HEAD, np.ones((2, 1, 8)), make_rng(1), True)[1]
CAL = init_calibrator("marc", 3, 8, make_rng(2))
DS = FeatureDataset(features=np.ones((3, 1, 2)), labels=[0, 1, 2], num_classes=3)
EMB = TextClassEmbeddings.from_matrix(np.eye(3))
SPEC_KW = dict(num_classes=3, head_count=10, imbalance_ratio=2.0, dim=2)

CASES = {
    "loss_logits_not_k_wide": (
        lambda: total_loss(SPEC, np.zeros((2, 4)), LABELS, STATS),
        DataError, r"logits must be \(batch, 3\), got \(2, 4\)"),
    "loss_logits_1d": (
        lambda: total_loss(SPEC, np.zeros(3), LABELS, STATS),
        DataError, r"logits must be \(batch, 3\), got \(3,\)"),
    "loss_labels_too_long": (
        lambda: total_loss(SPEC, np.zeros((2, 3)), np.array([0, 1, 2]), STATS),
        DataError, "labels must be a vector matching the batch size"),
    "loss_labels_2d": (
        lambda: total_loss(SPEC, np.zeros((2, 3)), LABELS[:, None], STATS),
        DataError, "labels must be a vector matching the batch size"),
    "loss_logits_nan": (
        lambda: total_loss(SPEC, np.array([[0.0, np.nan, 0.0]] * 2), LABELS, STATS),
        DataError, "logits must be finite"),
    "loss_logits_inf": (
        lambda: total_loss(SPEC, np.array([[0.0, 0.0, -np.inf]] * 2), LABELS, STATS),
        DataError, "logits must be finite"),
    "loss_spec_of_other_k": (
        lambda: total_loss(make_loss_spec("ce", stats_from_counts([5, 3, 1, 1])),
                           np.zeros((2, 3)), LABELS, STATS),
        DataError, "loss spec does not match the class statistics"),
    "forward_tokens_2d": (
        lambda: forward_batch(HEAD, np.ones((2, 8)), None, False),
        ShapeError, r"expected \(B, T, D\) tokens, got shape \(2, 8\)"),
    "forward_tokens_4d": (
        lambda: forward_batch(HEAD, np.ones((2, 1, 1, 8)), None, False),
        ShapeError, r"expected \(B, T, D\) tokens"),
    "forward_zero_tokens": (
        lambda: forward_batch(HEAD, np.ones((2, 0, 8)), None, False),
        ShapeError, "need at least one token per sample"),
    "pool_tokens_2d": (
        lambda: pool_batch(HEAD, np.ones((2, 8)), None, False),
        ShapeError, r"expected \(B, T, D\) tokens, got shape \(2, 8\)"),
    "pool_tokens_4d": (
        lambda: pool_batch(HEAD, np.ones((2, 1, 1, 8)), None, False),
        ShapeError, r"expected \(B, T, D\) tokens"),
    "pool_zero_tokens": (
        lambda: pool_batch(HEAD, np.ones((2, 0, 8)), None, False),
        ShapeError, "need at least one token per sample"),
    "pool_token_dim_mismatch": (
        lambda: pool_batch(HEAD, np.ones((2, 1, 7)), None, False),
        ShapeError, "token dim 7 does not match head dim 8"),
    "pool_out_in_eval_mode": (
        lambda: pool_batch(HEAD, np.ones((2, 1, 8)), None, False, out=CACHE),
        StateError, "out= takes a train-mode cache"),
    "pool_out_of_eval_forward": (
        lambda: pool_batch(HEAD, np.ones((2, 1, 8)), make_rng(1), True,
                           out=pool_batch(HEAD, np.ones((2, 1, 8)), None, False)[1]),
        StateError, "out= takes a train-mode cache"),
    "pool_out_of_other_head": (
        lambda: pool_batch(init_decoder(DecoderConfig(dim=8, num_classes=3, depth=2,
                                                      heads=2), make_rng(0)),
                           np.ones((2, 1, 8)), make_rng(1), True, out=CACHE),
        StateError, "out cache does not match this head"),
    "backward_dlogits_not_k_wide": (
        lambda: backward_batch(HEAD, CACHE, np.zeros((2, 4))),
        ShapeError, r"dlogits must be \(B, 3\)"),
    "backward_dlogits_1d": (
        lambda: backward_batch(HEAD, CACHE, np.zeros(3)),
        ShapeError, r"dlogits must be \(B, 3\)"),
    "backward_dlogits_other_batch": (
        lambda: backward_batch(HEAD, CACHE, np.zeros((3, 3))),
        StateError, "dlogits batch size does not match the cached forward"),
    "apply_batch_axes_differ": (
        lambda: apply_batch(CAL, np.zeros((2, 8)), np.zeros((3, 3)), np.ones(3)),
        ShapeError, "pooled features and logits must share a batch axis"),
    "apply_pooled_1d": (
        lambda: apply_batch(CAL, np.zeros(8), np.zeros((1, 3)), np.ones(3)),
        ShapeError, "pooled features and logits must share a batch axis"),
    "sample_batch_size_0": (
        lambda: sample_batch(DS, STATS, CLASS_BALANCED, 0, make_rng(0)),
        DomainError, "batch_size must be >= 1"),
    "sample_unknown_strategy": (
        lambda: sample_batch(DS, STATS, "stratified", 4, make_rng(0)),
        ConfigError, "unknown sampling strategy 'stratified'"),
    "config_negative_total_iters": (
        lambda: TrainConfig(total_iters=-1),
        ConfigError, "iteration counts must be >= 0"),
    "config_negative_stage2_iters": (
        lambda: TrainConfig(stage2_iters=-1),
        ConfigError, "iteration counts must be >= 0"),
    "config_warmup_without_iters": (
        lambda: TrainConfig(total_iters=0, warmup_iters=1),
        ConfigError, "warmup_iters must be 0 when total_iters is 0"),
    "config_lr0_zero": (
        lambda: TrainConfig(lr0=0.0),
        ConfigError, "lr0 must be positive"),
    "config_batch_size_0": (
        lambda: TrainConfig(batch_size=0),
        ConfigError, "batch_size must be >= 1"),
    "config_momentum_1": (
        lambda: TrainConfig(momentum=1.0),
        ConfigError, r"momentum must lie in \[0, 1\)"),
    "config_negative_weight_decay": (
        lambda: TrainConfig(weight_decay=-1e-4),
        ConfigError, "weight_decay must be >= 0"),
    "config_unknown_loss": (
        lambda: TrainConfig(loss="hinge"),
        ConfigError, "unknown loss variant 'hinge'"),
    "config_unknown_stage2": (
        lambda: TrainConfig(stage2_method="platt"),
        ConfigError, "unknown stage2 method 'platt'"),
    "run_config_line_without_equals": (
        lambda: parse_run_config("seed=1\n\ntotal_iters 40\n"),
        ConfigError, "line 3: expected key=value, got 'total_iters 40'"),
    "run_config_duplicate_key": (
        lambda: parse_run_config("seed=1\n# again\nseed = 2\n"),
        ConfigError, "line 3: duplicate key 'seed'"),
    "metrics_empty_test_set": (
        lambda: metrics_from_predictions(np.array([], dtype=np.int64),
                                         np.array([], dtype=np.int64), STATS),
        DataError, "cannot evaluate on an empty test set"),
    "metrics_label_above_k": (
        lambda: metrics_from_predictions(np.array([0, 1]), np.array([0, 3]), STATS),
        DataError, r"labels and predictions must lie in \[0, 3\)"),
    "metrics_negative_prediction": (
        lambda: metrics_from_predictions(np.array([-1, 1]), np.array([0, 1]), STATS),
        DataError, r"labels and predictions must lie in \[0, 3\)"),
    "zero_shot_images_other_dim": (
        lambda: zero_shot_classify(np.ones((2, 4)), EMB),
        ShapeError, r"image embeddings must be \(N, D\) with matching D"),
    "zero_shot_images_1d": (
        lambda: zero_shot_classify(np.ones(3), EMB),
        ShapeError, r"image embeddings must be \(N, D\) with matching D"),
    "class_embeddings_1d": (
        lambda: TextClassEmbeddings.from_matrix(np.ones(3)),
        ShapeError, r"class embeddings must be a \(K, D\) matrix"),
    "class_embeddings_no_rows": (
        lambda: TextClassEmbeddings.from_matrix(np.zeros((0, 3))),
        ShapeError, "class embeddings need at least one row"),
    "dataset_features_2d": (
        lambda: FeatureDataset(features=np.ones((3, 2)), labels=[0, 1, 2],
                               num_classes=3),
        DataError, r"features must be \(N, T, D\), got \(3, 2\)"),
    "dataset_labels_too_short": (
        lambda: FeatureDataset(features=np.ones((3, 1, 2)), labels=[0, 1],
                               num_classes=3),
        DataError, "labels length must match the sample count"),
    "dataset_no_classes": (
        lambda: FeatureDataset(features=np.ones((3, 1, 2)), labels=[0, 0, 0],
                               num_classes=0),
        DataError, "num_classes must be >= 1"),
    "dataset_unknown_role": (
        lambda: FeatureDataset(features=np.ones((3, 1, 2)), labels=[0, 1, 2],
                               num_classes=3, role="validation"),
        DataError, r"role must be one of \['test', 'train'\]"),
    "synthetic_ratio_below_1": (
        lambda: SyntheticSpec(**{**SPEC_KW, "imbalance_ratio": 0.5}),
        ConfigError, "imbalance ratio must be >= 1"),
    "synthetic_head_below_ratio": (
        lambda: SyntheticSpec(**{**SPEC_KW, "head_count": 1}),
        ConfigError, "head_count must be >= imbalance_ratio"),
    "synthetic_zero_tokens": (
        lambda: SyntheticSpec(**SPEC_KW, tokens=0),
        ConfigError, "dim and tokens must be >= 1"),
    "synthetic_negative_test_per_class": (
        lambda: SyntheticSpec(**SPEC_KW, test_per_class=-1),
        ConfigError, "test_per_class must be >= 0"),
    "text_rows_empty_file": (
        lambda: read_text_rows(os.devnull),
        FormatError, "no data rows"),
    "decoder_negative_depth": (
        lambda: DecoderConfig(dim=8, num_classes=3, depth=-1),
        ConfigError, "depth must be >= 0"),
    "gradcheck_unknown_module": (
        lambda: run_gradcheck("optimizers"),
        ConfigError, "unknown gradcheck module 'optimizers'"),
    "class_stats_zero_labels": (
        lambda: build_class_stats(np.array([], dtype=np.int64), 3),
        DataError, "cannot build class statistics from zero labels"),
    "counts_empty": (
        lambda: stats_from_counts([]),
        DataError, "counts must be a non-empty vector"),
    "softmax_rows_1d": (
        lambda: softmax_rows(np.zeros(3)),
        ShapeError, r"softmax_rows expects a 2-D array, got \(3,\)"),
    "softmax_rows_inf": (
        lambda: softmax_rows(np.array([[0.0, math.inf]])),
        DomainError, "softmax_rows requires finite logits"),
    "finite_diff_params_2d": (
        lambda: finite_diff_check(lambda p: (0.0, p), np.zeros((2, 2))),
        ShapeError, "finite_diff_check expects a flat parameter vector"),
    "finite_diff_gradient_too_long": (
        lambda: finite_diff_check(lambda p: (0.0, np.zeros(3)), np.zeros(2)),
        ShapeError, "analytic gradient length does not match parameters"),
    "finite_diff_perturbed_value_inf": (
        lambda: finite_diff_check(
            lambda p: (0.0 if p[0] == 0 else math.inf, np.zeros(1)), np.zeros(1)),
        EvaluationError, "non-finite value at coordinate 0"),
}


@pytest.mark.parametrize("call, error, match", CASES.values(), ids=CASES.keys())
def test_raises(call, error, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert type(info.value) is error
