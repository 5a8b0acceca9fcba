"""Raise sites that no other test reaches: each call must fail with the
given exception type and message. Below them, a sweep meets every label-like
and real-valued argument of an `lthead` export with each malformed kind."""

import inspect
import math
import os

import numpy as np
import pytest

import lthead
from lthead import (CLASS_BALANCED, ConfigError, DataError, DecoderConfig,
                    DomainError, EvaluationError, FeatureDataset, FormatError,
                    ShapeError, StateError, SyntheticSpec, TextClassEmbeddings,
                    TrainConfig, backward_batch, build_class_stats,
                    finite_diff_check, forward_batch, init_calibrator,
                    init_decoder, lade_dv_regularizer, make_loss_spec,
                    make_rng, metrics_from_predictions, parse_run_config,
                    read_text_rows, run_gradcheck, sample_batch,
                    save_checkpoint, softmax_rows, stats_from_counts,
                    total_loss, zero_shot_classify)
from lthead.calibrators import apply_batch
from lthead.data import class_index
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
    "class_stats_fractional_labels": (  # np.int64 would count [1, 1, 1]
        lambda: build_class_stats([0.5, 1.2, 2.0], 3),
        DataError, r"labels must be whole numbers below 2\^63"),
    "class_stats_labels_2d": (  # np.bincount: "object too deep"
        lambda: build_class_stats(np.array([[0, 1], [1, 2]]), 3),
        DataError, r"labels must be a vector, got shape \(2, 2\)"),
    "loss_nan_labels": (  # int(): "cannot convert float NaN to integer"
        lambda: total_loss(SPEC, np.zeros((2, 3)), [math.nan, 1.0], STATS),
        DataError, r"labels must be whole numbers below 2\^63"),
    "class_index_negative_label": (  # np.bincount: "no negative elements"
        lambda: class_index([-1, 1], 3),
        DataError, r"labels must lie in \[0, 3\), got range \[-1, 1\]"),
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
        lambda v: total_loss(SPEC, np.zeros((2, 3)), v, STATS), "labels"),
    ("lade_dv_regularizer", "labels"): (
        lambda v: lade_dv_regularizer(np.zeros((2, 3)), v, STATS), "labels"),
    ("metrics_from_predictions", "predictions"): (
        lambda v: metrics_from_predictions(v, [0, 1], STATS), "predictions"),
    ("metrics_from_predictions", "labels"): (
        lambda v: metrics_from_predictions([0, 1], v, STATS), "labels"),
    ("FeatureDataset", "labels"): (
        lambda v: FeatureDataset(np.ones((2, 1, 2)), v, 3), "labels"),
    ("class_index", "labels"): (lambda v: class_index(v, 3), "labels"),
    ("stats_from_counts", "counts"): (stats_from_counts, "counts"),
}
NOT_CLASS_IDS = {("stats_from_counts", "counts")}  # counts have no K to exceed

MALFORMED_REALS = {"complex": np.complex128, "string": "U1", "object": object}
REAL_ENTRIES = {  # (export, argument): (call, well-formed shape, message name)
    ("total_loss", "logits"): (
        lambda v: total_loss(SPEC, v, LABELS, STATS), (2, 3), "logits"),
    ("lade_dv_regularizer", "logits"): (
        lambda v: lade_dv_regularizer(v, LABELS, STATS), (2, 3), "logits"),
    ("softmax_rows", "logits"): (softmax_rows, (2, 3), "logits"),
    ("FeatureDataset", "features"): (
        lambda v: FeatureDataset(v, [0, 1], 3), (2, 1, 2), "features"),
    ("TextClassEmbeddings.from_matrix", "matrix"): (
        TextClassEmbeddings.from_matrix, (3, 2), "class embeddings"),
    ("zero_shot_classify", "image_embs"): (
        lambda v: zero_shot_classify(v, EMB), (2, 3), "image embeddings"),
}

# Records that checked entries build; they validate nothing themselves.
UNCHECKED_RECORDS = {
    ("ClassStats", "counts"): "built by build_class_stats and stats_from_counts",
    ("TextClassEmbeddings", "matrix"): "built by TextClassEmbeddings.from_matrix",
}
SWEPT_ARGUMENTS = {"labels", "predictions", "counts", "logits", "features",
                   "image_embs", "matrix"}


def _raises_naming(call, value, name):
    with pytest.raises(DataError, match=f"^{name} ") as info:
        call(value)
    assert type(info.value) is DataError


@pytest.mark.filterwarnings("error")  # a ComplexWarning would mean a cast ran
@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry in LABEL_ENTRIES for kind in MALFORMED_LABELS
    if not (entry in NOT_CLASS_IDS and kind == "at_k")],
    ids=lambda x: ".".join(x) if isinstance(x, tuple) else x)
def test_label_like_argument_refuses(entry, kind):
    call, name = LABEL_ENTRIES[entry]
    _raises_naming(call, MALFORMED_LABELS[kind], name)


@pytest.mark.parametrize("entry", LABEL_ENTRIES, ids=".".join)
def test_label_like_argument_accepts_whole_floats(entry):
    call, _ = LABEL_ENTRIES[entry]
    call(np.array([0.0, 1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", MALFORMED_REALS)
@pytest.mark.parametrize("entry", REAL_ENTRIES, ids=".".join)
def test_real_valued_argument_refuses(entry, kind):
    call, shape, name = REAL_ENTRIES[entry]
    _raises_naming(call, np.ones(shape, dtype=MALFORMED_REALS[kind]), name)


def _ragged(shape):
    """Nested lists of `shape` whose last innermost list is one entry longer."""
    rows = np.ones(shape).tolist()
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
    swept = set(LABEL_ENTRIES) | set(REAL_ENTRIES) | set(UNCHECKED_RECORDS)
    missing = [arg for arg in _exported_arguments()
               if arg[1] in SWEPT_ARGUMENTS and arg not in swept]
    assert missing == []
    assert {"labels", "logits", "matrix"} <= {p for _, p in _exported_arguments()}
