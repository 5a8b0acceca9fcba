"""Raise sites that no other test reaches: each call must fail with the
given exception type and message. Below them, a sweep meets every label-like
and real-valued argument of an `lthead` export with each malformed kind."""

import dataclasses
import inspect
import math
import os

import numpy as np
import pytest

import lthead
from lthead import (CLASS_BALANCED, ClassStats, ConfigError, DataError,
                    DecoderConfig, DomainError, EvaluationError,
                    FeatureDataset, FormatError, LossSpec, ShapeError,
                    StateError, SyntheticSpec, TextClassEmbeddings,
                    TrainConfig, backward_batch, build_class_stats, calibrators,
                    context_weight_norms, finite_diff_check, forward_batch,
                    gelu, gelu_with_grad, init_calibrator, init_decoder,
                    lade_dv_regularizer, layer_norm, layer_norm_backward,
                    make_loss_spec, make_rng, metrics_from_predictions,
                    parse_run_config, read_text_rows, run_gradcheck,
                    sample_batch, save_checkpoint, sgd_step, softmax_rows,
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
CAL_CACHE = apply_batch(CAL, np.zeros((2, 8)), np.zeros((2, 3)), np.ones(3))[1]
LN_CACHE = layer_norm(np.ones((3, 2)), np.ones(2), np.zeros(2))[1]
HEAD2 = init_decoder(DecoderConfig(dim=8, num_classes=2, depth=0), make_rng(0))
DS = FeatureDataset(features=np.ones((3, 1, 2)), labels=[0, 1, 2], num_classes=3)
EMB = TextClassEmbeddings.from_matrix(np.eye(3))
SPEC_KW = dict(num_classes=3, head_count=10, imbalance_ratio=2.0, dim=2)


def _sgd_step_int64_params():
    velocity = np.zeros(2)
    try:
        sgd_step(np.zeros(2, dtype=np.int64), np.ones(2), velocity, 0.1, 0.9, 0.0)
    finally:  # refused before anything was written
        np.testing.assert_array_equal(velocity, 0.0)


CASES = {
    "loss_logits_not_k_wide": (
        lambda: total_loss(SPEC, np.zeros((2, 4)), LABELS),
        DataError, r"logits must be \(batch, 3\), got \(2, 4\)"),
    "loss_logits_1d": (
        lambda: total_loss(SPEC, np.zeros(3), LABELS),
        DataError, r"logits must be \(batch, 3\), got \(3,\)"),
    "loss_labels_too_long": (
        lambda: total_loss(SPEC, np.zeros((2, 3)), np.array([0, 1, 2])),
        DataError, "labels must be a vector matching the batch size"),
    "loss_labels_2d": (
        lambda: total_loss(SPEC, np.zeros((2, 3)), LABELS[:, None]),
        DataError, "labels must be a vector matching the batch size"),
    "loss_logits_nan": (
        lambda: total_loss(SPEC, np.array([[0.0, np.nan, 0.0]] * 2), LABELS),
        DataError, "logits must be finite"),
    "loss_logits_inf": (
        lambda: total_loss(SPEC, np.array([[0.0, 0.0, -np.inf]] * 2), LABELS),
        DataError, "logits must be finite"),
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
        lambda: sample_batch(DS, CLASS_BALANCED, 0, make_rng(0)),
        DomainError, "batch_size must be >= 1"),
    "sample_class_balanced_unseen_class": (  # stats-driven IndexError before
        lambda: sample_batch(FeatureDataset(np.ones((2, 1, 2)), [0, 1], 3),
                             CLASS_BALANCED, 4, make_rng(0)),
        DataError, "class-balanced sampling needs every class to have at least"),
    "sample_unknown_strategy": (
        lambda: sample_batch(DS, "stratified", 4, make_rng(0)),
        ConfigError, "unknown sampling strategy 'stratified'"),
    "config_negative_seed": (  # numpy: "expected non-negative integer"
        lambda: TrainConfig(seed=-1),
        ConfigError, "^seed must be >= 0, got -1$"),
    "make_rng_negative_seed": (
        lambda: make_rng(-1),
        DomainError, "^seed must be >= 0, got -1$"),
    "config_fractional_seed": (  # make_rng: SeedSequence's bare TypeError
        lambda: TrainConfig(seed=1.5),
        ConfigError, r"^seed must be an integer, got 1\.5$"),
    "make_rng_fractional_seed": (
        lambda: make_rng(1.5),
        DomainError, r"^seed must be an integer, got 1\.5$"),
    "make_rng_string_seed": (
        lambda: make_rng("1"),
        DomainError, "^seed must be an integer, got '1'$"),
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
        DataError, r"labels must lie in \[0, 3\)"),
    "metrics_negative_prediction": (
        lambda: metrics_from_predictions(np.array([-1, 1]), np.array([0, 1]), STATS),
        DataError, r"predictions must lie in \[0, 3\)"),
    "metrics_fractional_predictions": (  # np.int64 would truncate to [1, 0, 2]
        lambda: metrics_from_predictions([1.7, 0.2, 2.9], [1, 0, 2], STATS),
        DataError, r"predictions must be whole numbers below 2\^63"),
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
    "dataset_fractional_num_classes": (  # would build a 2.5-class dataset
        lambda: FeatureDataset(np.ones((2, 1, 2)), [0, 1], 2.5),
        DataError, r"^num_classes must be >= 1 and an integer, got 2\.5"),
    "class_stats_string_num_classes": (  # np.bincount: UFuncTypeError
        lambda: build_class_stats([0, 1], "3"),
        DataError, "^num_classes must be >= 1 and an integer, got '3'"),
    "dataset_unknown_role": (
        lambda: FeatureDataset(features=np.ones((3, 1, 2)), labels=[0, 1, 2],
                               num_classes=3, role="validation"),
        DataError, r"role must be one of \['test', 'train'\]"),
    "dataset_fractional_labels": (  # np.int64 would truncate to [0, 1, 2]
        lambda: FeatureDataset(np.zeros((3, 1, 2)), [0.7, 1.2, 2.9], 3),
        DataError, r"labels must be whole numbers below 2\^63"),
    "synthetic_ratio_below_1": (
        lambda: SyntheticSpec(**{**SPEC_KW, "imbalance_ratio": 0.5}),
        ConfigError, "imbalance ratio must be >= 1"),
    "synthetic_head_below_ratio": (
        lambda: SyntheticSpec(**{**SPEC_KW, "head_count": 1}),
        ConfigError, "head_count must be >= imbalance_ratio"),
    "synthetic_zero_tokens": (
        lambda: SyntheticSpec(**SPEC_KW, tokens=0),
        ConfigError, "dim and tokens must be >= 1"),
    "synthetic_negative_seed": (
        lambda: SyntheticSpec(**SPEC_KW, seed=-1),
        ConfigError, "^seed must be >= 0, got -1$"),
    "synthetic_fractional_seed": (
        lambda: SyntheticSpec(**SPEC_KW, seed=1.5),
        ConfigError, r"^seed must be an integer, got 1\.5$"),
    "synthetic_negative_noise": (  # would draw clusters with noise |noise|
        lambda: SyntheticSpec(**SPEC_KW, noise=-1.0),
        ConfigError, r"^noise must be >= 0, got -1\.0$"),
    "gradcheck_infinite_tol": (  # would pass every check
        lambda: finite_diff_check(lambda v: (0.0, v), np.zeros(2), tol=math.inf),
        DomainError, "^tol must be finite and > 0, got inf$"),
    "gradcheck_nan_tol": (  # would fail every check
        lambda: finite_diff_check(lambda v: (0.0, v), np.zeros(2), tol=math.nan),
        DomainError, "^tol must be finite and > 0, got nan$"),
    "gradcheck_negative_tol": (
        lambda: finite_diff_check(lambda v: (0.0, v), np.zeros(2), tol=-1.0),
        DomainError, r"^tol must be finite and > 0, got -1\.0$"),
    "synthetic_negative_test_per_class": (
        lambda: SyntheticSpec(**SPEC_KW, test_per_class=-1),
        ConfigError, "test_per_class must be >= 0"),
    "text_rows_empty_file": (
        lambda: read_text_rows(os.devnull),
        FormatError, "no data rows"),
    "decoder_params_beyond_one_array": (  # np.zeros: "Maximum allowed dimension"
        lambda: DecoderConfig(dim=4, num_classes=3, heads=2, mlp_ratio=1e300),
        ConfigError, "the head needs more parameters than one float64 array"),
    "decoder_negative_depth": (
        lambda: DecoderConfig(dim=8, num_classes=3, depth=-1),
        ConfigError, "depth must be >= 0"),
    "gradcheck_unknown_module": (
        lambda: run_gradcheck("optimizers"),
        ConfigError, "unknown gradcheck module 'optimizers'"),
    "class_stats_zero_labels": (
        lambda: build_class_stats(np.array([], dtype=np.int64), 3),
        DataError, "cannot build class statistics from zero labels"),
    "class_stats_fractional_labels": (  # np.int64 would count [1, 1, 1]
        lambda: build_class_stats([0.5, 1.2, 2.0], 3),
        DataError, r"labels must be whole numbers below 2\^63"),
    "class_stats_labels_2d": (  # np.bincount: "object too deep"
        lambda: build_class_stats(np.array([[0, 1], [1, 2]]), 3),
        DataError, r"labels must be a vector, got shape \(2, 2\)"),
    "loss_nan_labels": (  # int(): "cannot convert float NaN to integer"
        lambda: total_loss(SPEC, np.zeros((2, 3)), [math.nan, 1.0]),
        DataError, r"labels must be whole numbers below 2\^63"),
    "counts_empty": (
        lambda: stats_from_counts([]),
        DataError, "counts must be a non-empty vector"),
    "checkpoint_counts_ragged": (  # np.shape: "inhomogeneous shape"
        lambda: save_checkpoint(os.path.join(os.devnull, "model.ckpt"), HEAD,
                                [[5], [3, 1], [1]]),
        DataError, "^counts must be an array, not a ragged sequence"),
    "softmax_rows_1d": (
        lambda: softmax_rows(np.zeros(3)),
        ShapeError, r"softmax_rows expects a 2-D array, got \(3,\)"),
    "softmax_rows_inf": (
        lambda: softmax_rows(np.array([[0.0, math.inf]])),
        DomainError, "softmax_rows requires finite logits"),
    "sgd_step_int64_params": (  # numpy: UFuncTypeError after velocity moved
        _sgd_step_int64_params,
        ShapeError, r"^params must be a \(2,\) float64 array, got \(2,\) int64"),
    "sgd_step_list_params": (  # bare AttributeError: no .shape
        lambda: sgd_step([0.0, 0.0], np.ones(2), np.zeros(2), 0.1, 0.9, 0.0),
        ShapeError, r"^params must be a \(2,\) float64 array, got list"),
    "sgd_step_short_velocity": (
        lambda: sgd_step(np.zeros(2), np.ones(2), np.zeros(3), 0.1, 0.9, 0.0),
        ShapeError, r"^velocity must be a \(2,\) float64 array, got \(3,\) float64"),
    "sgd_step_list_velocity": (
        lambda: sgd_step(np.zeros(2), np.ones(2), [0.0, 0.0], 0.1, 0.9, 0.0),
        ShapeError, r"^velocity must be a \(2,\) float64 array, got list"),
    "layer_norm_backward_dy_wider": (  # numpy: broadcast ValueError
        lambda: layer_norm_backward(LN_CACHE, np.ones((3, 5))),
        ShapeError, r"dy shape \(3, 5\) does not match the cached forward's \(3, 2\)"),
    "layer_norm_backward_dy_more_rows": (
        lambda: layer_norm_backward(LN_CACHE, np.ones((4, 2))),
        ShapeError, r"dy shape \(4, 2\) does not match the cached forward's \(3, 2\)"),
    "layer_norm_backward_dy_1d": (
        lambda: layer_norm_backward(LN_CACHE, np.ones(2)),
        ShapeError, r"dy shape \(2,\) does not match the cached forward's \(3, 2\)"),
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


INT_CONFIGS = {TrainConfig: {}, SyntheticSpec: SPEC_KW,  # valid keywords
               DecoderConfig: dict(dim=8, num_classes=3)}
INT_FIELDS = [(config, f.name) for config in INT_CONFIGS
              for f in dataclasses.fields(config) if f.type == "int"]


def test_int_fields_are_found():
    assert {(TrainConfig, "batch_size"), (SyntheticSpec, "tokens"),
            (SyntheticSpec, "head_count"), (DecoderConfig, "depth"),
            (TrainConfig, "seed")} <= set(INT_FIELDS)


@pytest.mark.parametrize("config, name", INT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in INT_FIELDS])
def test_int_field_refuses_a_fraction(config, name):
    kwargs = INT_CONFIGS[config]
    whole = getattr(config(**kwargs), name)
    with pytest.raises(ConfigError,
                       match=rf"^{name} must be an integer, got {whole}\.5$") as info:
        config(**{**kwargs, name: whole + 0.5})
    assert type(info.value) is ConfigError


@pytest.mark.parametrize("config", INT_CONFIGS, ids=lambda c: c.__name__)
def test_int_fields_accept_numpy_integers(config):
    kwargs = INT_CONFIGS[config]
    plain = config(**kwargs)
    as_int64 = {name: np.int64(getattr(plain, name))
                for c, name in INT_FIELDS if c is config}
    assert config(**{**kwargs, **as_int64}) == plain


# The one scalar-field rule (`numerics.check_fields`) over all four configs.
FIELD_CONFIGS = {**INT_CONFIGS, LossSpec: dict(
    variant="ce", weights=np.ones(3), biases=np.zeros(3), margins=np.zeros(3))}
FIELD_CASES = [  # (config, field, value, the message after the field's name)
    (config, f.name, value, message) for config in FIELD_CONFIGS
    for f in dataclasses.fields(config)
    for value, message in {
        "int": [(True, "must be an integer, got True")],
        "float": [("x", "must be a real number, got 'x'"),
                  (True, "must be a real number, got True"),
                  (math.nan, "must be finite, got nan"),
                  (10 ** 400, f"must be finite, got {10 ** 400}")],
    }.get(f.type, [])]


def test_field_cases_cover_every_config():
    assert {(c, n) for c, n, _, _ in FIELD_CASES} >= {
        (TrainConfig, "lr0"), (TrainConfig, "batch_size"),
        (SyntheticSpec, "noise"), (DecoderConfig, "mlp_ratio"),
        (LossSpec, "gamma"), (LossSpec, "lam")}


@pytest.mark.parametrize("config, name, value, message", FIELD_CASES,
                         ids=[f"{c.__name__}.{n}={v!r}" for c, n, v, _ in FIELD_CASES])
def test_scalar_field_refused_naming_it(config, name, value, message):
    # a bool would have run as 0 or 1; text, NaN or an int beyond float64
    # ended in a bare TypeError or OverflowError, or a later, unnamed refusal
    with pytest.raises(ConfigError, match=f"^{name} {message}$") as info:
        config(**{**FIELD_CONFIGS[config], name: value})
    assert type(info.value) is ConfigError


# The input rules per dtype kind (README, losses). Label-like arguments take
# integers and whole, finite floats below 2^63; class ids must also form a
# vector in [0, K). Real-valued arguments take bool, integer and float arrays.
# Every other input is a `DataError` whose message starts with the argument's
# name: never a silent cast, a numpy warning or a bare numpy error.
MALFORMED_LABELS = {
    "fraction": [0.5, 1.0],
    "nan": [math.nan, 1.0],
    "inf": [math.inf, 1.0],
    "negative": [-1, 1],
    "at_k": [3, 1],
    "two_to_63": [2.0 ** 63, 1.0],
    "string": ["0", "1"],
    "bool": [True, False],
    "complex": [1 + 0j, 0j],
    "beyond_int64": [2 ** 70, 1],  # a Python int: an object array
    "2d": [[0], [1]],
    "ragged": [[0], [1, 2]],
}
LABEL_ENTRIES = {  # (export, argument): (call with a two-entry value, message name)
    ("build_class_stats", "labels"): (lambda v: build_class_stats(v, 3), "labels"),
    ("total_loss", "labels"): (
        lambda v: total_loss(SPEC, np.zeros((2, 3)), v), "labels"),
    ("lade_dv_regularizer", "labels"): (
        lambda v: lade_dv_regularizer(SPEC, np.zeros((2, 3)), v), "labels"),
    ("metrics_from_predictions", "predictions"): (
        lambda v: metrics_from_predictions(v, [0, 1], STATS), "predictions"),
    ("metrics_from_predictions", "labels"): (
        lambda v: metrics_from_predictions([0, 1], v, STATS), "labels"),
    ("FeatureDataset", "labels"): (
        lambda v: FeatureDataset(np.ones((2, 1, 2)), v, 3), "labels"),
    ("stats_from_counts", "counts"): (stats_from_counts, "counts"),
    ("ClassStats", "counts"): (ClassStats, "counts"),
    ("save_checkpoint", "class_counts"): (  # writes into the test's tmp_path
        lambda v: save_checkpoint("model.ckpt", HEAD2, v), "counts"),
}
NOT_CLASS_IDS = {("stats_from_counts", "counts"),  # counts have no K to exceed
                 ("ClassStats", "counts"), ("save_checkpoint", "class_counts")}

MALFORMED_REALS = {"complex": np.complex128, "string": "U1", "object": object}
REAL_ENTRIES = {  # (export, argument): (call, well-formed shape, message name)
    ("total_loss", "logits"): (
        lambda v: total_loss(SPEC, v, LABELS), (2, 3), "logits"),
    ("lade_dv_regularizer", "logits"): (
        lambda v: lade_dv_regularizer(SPEC, v, LABELS), (2, 3), "logits"),
    ("softmax_rows", "logits"): (softmax_rows, (2, 3), "logits"),
    ("FeatureDataset", "features"): (
        lambda v: FeatureDataset(v, [0, 1], 3), (2, 1, 2), "features"),
    ("TextClassEmbeddings.from_matrix", "matrix"): (
        TextClassEmbeddings.from_matrix, (3, 2), "class embeddings"),
    ("TextClassEmbeddings", "matrix"): (
        TextClassEmbeddings, (3, 2), "class embeddings"),
    ("zero_shot_classify", "image_embs"): (
        lambda v: zero_shot_classify(v, EMB), (2, 3), "image embeddings"),
    ("forward_batch", "tokens"): (
        lambda v: forward_batch(HEAD, v, None, False), (2, 1, 8), "tokens"),
    ("backward_batch", "dlogits"): (
        lambda v: backward_batch(HEAD, CACHE, v), (2, 3), "dlogits"),
    ("layer_norm", "x"): (
        lambda v: layer_norm(v, np.ones(2), np.zeros(2)), (3, 2), "x"),
    ("layer_norm", "gamma"): (
        lambda v: layer_norm(np.ones((3, 2)), v, np.zeros(2)), (2,), "gamma"),
    ("layer_norm", "beta"): (
        lambda v: layer_norm(np.ones((3, 2)), np.ones(2), v), (2,), "beta"),
    ("layer_norm_backward", "dy"): (
        lambda v: layer_norm_backward(LN_CACHE, v), (3, 2), "dy"),
    ("gelu", "x"): (gelu, (2, 3), "x"),
    ("gelu_with_grad", "x"): (gelu_with_grad, (2, 3), "x"),
    ("sgd_step", "grads"): (  # params and velocity are written in place
        lambda v: sgd_step(np.zeros(3), v, np.zeros(3), 0.1, 0.9, 0.0),
        (3,), "grads"),
    ("context_weight_norms", "cls_weight"): (
        context_weight_norms, (3, 2), "cls_weight"),
    ("finite_diff_check", "params"): (
        lambda v: finite_diff_check(lambda p: (0.0, np.zeros(2)), v),
        (2,), "params"),
    ("finite_diff_check", "f"): (  # the gradient that f returns
        lambda v: finite_diff_check(lambda p: (0.0, v), np.zeros(2)),
        (2,), "gradient"),
    # not exports, so the guard below does not ask for these rows
    ("calibrators.apply_batch", "pooled"): (
        lambda v: apply_batch(CAL, v, np.zeros((2, 3)), np.ones(3)),
        (2, 8), "pooled"),
    ("calibrators.apply_batch", "logits"): (
        lambda v: apply_batch(CAL, np.zeros((2, 8)), v, np.ones(3)),
        (2, 3), "logits"),
    ("calibrators.apply_batch", "weight_norms"): (
        lambda v: apply_batch(CAL, np.zeros((2, 8)), np.zeros((2, 3)), v),
        (3,), "weight_norms"),
    ("calibrators.backward_batch", "dadjusted"): (
        lambda v: calibrators.backward_batch(CAL, CAL_CACHE, v),
        (2, 3), "dadjusted"),
}

# Scalars that share a swept argument's name.
NOT_ARRAYS = {
    ("SyntheticSpec", "tokens"): "the token count per sample",
    ("LossSpec", "gamma"): "focal's exponent",
    ("make_loss_spec", "gamma"): "focal's exponent",
}
SWEPT_ARGUMENTS = {"labels", "predictions", "counts", "class_counts", "logits",
                   "features", "image_embs", "matrix", "tokens", "dlogits",
                   "x", "gamma", "beta", "dy", "grads", "cls_weight"}


def _raises_naming(call, value, name):
    with pytest.raises(DataError, match=f"^{name} ") as info:
        call(value)
    assert type(info.value) is DataError


@pytest.mark.filterwarnings("error")  # a ComplexWarning would mean a cast ran
@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry in LABEL_ENTRIES for kind in MALFORMED_LABELS
    if not (entry in NOT_CLASS_IDS and kind == "at_k")],
    ids=lambda x: ".".join(x) if isinstance(x, tuple) else x)
def test_label_like_argument_refuses(entry, kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call, name = LABEL_ENTRIES[entry]
    _raises_naming(call, MALFORMED_LABELS[kind], name)


@pytest.mark.parametrize("entry", LABEL_ENTRIES, ids=".".join)
def test_label_like_argument_accepts_whole_floats(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call, _ = LABEL_ENTRIES[entry]
    call(np.array([0.0, 1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", MALFORMED_REALS)
@pytest.mark.parametrize("entry", REAL_ENTRIES, ids=".".join)
def test_real_valued_argument_refuses(entry, kind):
    call, shape, name = REAL_ENTRIES[entry]
    _raises_naming(call, np.ones(shape, dtype=MALFORMED_REALS[kind]), name)


def _ragged(shape):
    """Nested lists of `shape` whose last innermost list is one entry longer;
    a vector's last entry becomes a list instead."""
    rows = np.ones(shape).tolist()
    if len(shape) == 1:
        rows[-1] = [1.0]
        return rows
    inner = rows
    while isinstance(inner[-1], list):
        inner = inner[-1]
    inner.append(1.0)
    return rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", REAL_ENTRIES, ids=".".join)
def test_real_valued_argument_refuses_ragged(entry):
    call, shape, name = REAL_ENTRIES[entry]
    _raises_naming(call, _ragged(shape), name)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [bool, np.int32, np.uint8])
@pytest.mark.parametrize("entry", REAL_ENTRIES, ids=".".join)
def test_real_valued_argument_accepts_bool_and_integers(entry, dtype):
    call, shape, _ = REAL_ENTRIES[entry]
    call(np.ones(shape, dtype=dtype))


def _exported_arguments():
    """(qualified name, parameter) for every export and its static methods."""
    for name, obj in vars(lthead).items():
        if name.startswith("_") or not callable(obj) or (
                inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        entries = [(name, obj)]
        if inspect.isclass(obj):
            entries += [(f"{name}.{attr}", getattr(obj, attr))
                        for attr, raw in vars(obj).items()
                        if not attr.startswith("_")
                        and isinstance(raw, (staticmethod, classmethod))]
        for qualified, fn in entries:
            for param in inspect.signature(fn).parameters:
                yield qualified, param


def test_every_swept_argument_of_an_export_has_a_sweep_row():
    swept = set(LABEL_ENTRIES) | set(REAL_ENTRIES) | set(NOT_ARRAYS)
    missing = [arg for arg in _exported_arguments()
               if arg[1] in SWEPT_ARGUMENTS and arg not in swept]
    assert missing == []
    assert {"labels", "logits", "matrix"} <= {p for _, p in _exported_arguments()}
