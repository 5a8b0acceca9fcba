"""Two-stage training, evaluation, and zero-shot classification.

Stage one trains the decoder head with instance-balanced batches under the
configured loss. Stage two freezes the head and trains only a calibrator,
with the batch sampler and loss of its `calibrators.RECIPES` entry.

Both stages run one loop, `_sgd_loop`: SGD with momentum (`numerics.sgd_step`,
weight decay folded into the gradient), linear warmup, and cosine decay to zero.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import calibrators as cal_mod
from .calibrators import (CALIBRATOR_VARIANTS, RECIPES, Calibrator,
                          context_weight_norms, init_calibrator)
from .data import INSTANCE_BALANCED, FeatureDataset, sample_batch
from .decoder import (DecoderConfig, DecoderHead, backward_batch, forward_batch,
                      init_decoder, pool_batch)
from .exceptions import (ConfigError, DataError, DivergenceError, DomainError,
                         ShapeError)
from .losses import (GROUP_FEW, GROUP_MANY, GROUP_MEDIUM, VARIANTS, ClassStats,
                     build_class_stats, class_labels, make_loss_spec,
                     total_loss)
from .numerics import (MAX_FLOAT64_SIZE, Array, check_fields, check_seed,
                       linear, real_values, sgd_step)

EVAL_CHUNK = 512  # fixed so evaluation arithmetic never depends on dataset size
_DECODER_DEFAULTS = {f.name: f.default for f in fields(DecoderConfig)}


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    total_iters: int = 8192
    batch_size: int = 256
    lr0: float = 0.03
    warmup_iters: int = 512
    momentum: float = 0.9
    weight_decay: float = 5e-4
    loss: str = "ce"
    focal_gamma: float = 2.0
    ldam_max_margin: float = 0.5
    lade_lambda: float = 0.1
    stage2_method: str | None = None
    stage2_iters: int = 2048
    depth: int = _DECODER_DEFAULTS["depth"]
    heads: int = _DECODER_DEFAULTS["heads"]
    mlp_ratio: float = _DECODER_DEFAULTS["mlp_ratio"]
    dropout: float = _DECODER_DEFAULTS["dropout"]

    def __post_init__(self):
        check_fields(self)
        check_seed(self.seed, ConfigError)
        if self.total_iters < 0 or self.stage2_iters < 0:
            raise ConfigError("iteration counts must be >= 0")
        if self.total_iters > 0 and not 0 <= self.warmup_iters < self.total_iters:
            raise ConfigError("warmup_iters must lie in [0, total_iters)")
        if self.total_iters == 0 and self.warmup_iters != 0:
            raise ConfigError("warmup_iters must be 0 when total_iters is 0")
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for name in ("batch_size", "total_iters", "stage2_iters"):  # array lengths
            if getattr(self, name) > MAX_FLOAT64_SIZE:
                raise ConfigError(f"{name} must be at most {MAX_FLOAT64_SIZE}, "
                                  "the largest float64 array")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.loss not in VARIANTS:
            raise ConfigError(f"unknown loss variant {self.loss!r}")
        if self.stage2_method not in (None, *CALIBRATOR_VARIANTS):
            raise ConfigError(f"unknown stage2 method {self.stage2_method!r}")


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def parse_run_config(text: str) -> TrainConfig:
    """Parse the plain-text key=value run config. Unknown keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if _FIELD_TYPES[key] == "int":
                values[key] = int(val)
            elif _FIELD_TYPES[key] == "float":
                values[key] = float(val)
            else:
                values[key] = None if val in ("", "none") else val
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key!r}") from None
    return TrainConfig(**values)


def config_fingerprint(decoder_config: DecoderConfig,
                       calibrator_variant: str | None = None) -> str:
    text = f"decoder:{decoder_config}|calibrator:{calibrator_variant}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def lr_at(cfg: TrainConfig, iteration: int) -> float:
    """Linear warmup to lr0, then cosine decay to zero."""
    if not 0 <= iteration < cfg.total_iters:
        raise DomainError(
            f"iteration {iteration} outside [0, {cfg.total_iters})")
    if iteration < cfg.warmup_iters:
        return cfg.lr0 * iteration / cfg.warmup_iters
    span = cfg.total_iters - cfg.warmup_iters
    progress = (iteration - cfg.warmup_iters) / span
    return cfg.lr0 * 0.5 * (1.0 + math.cos(math.pi * progress))


def _check_matches_head(ds: FeatureDataset, config: DecoderConfig) -> None:
    """Raise `ShapeError` unless the dataset's classes and width are the head's."""
    if ds.num_classes != config.num_classes:
        raise ShapeError(f"dataset has {ds.num_classes} classes but the head "
                         f"has {config.num_classes}")
    if ds.dim != config.dim:
        raise ShapeError(f"dataset has dim {ds.dim} but the head has dim {config.dim}")


def _class_stats(ds: FeatureDataset, config: DecoderConfig) -> ClassStats:
    """The dataset's class stats, once its classes and width match the head's."""
    _check_matches_head(ds, config)
    return build_class_stats(ds.labels, ds.num_classes)


def _sgd_loop(sched: TrainConfig, ds: FeatureDataset, strategy: str, spec,
              rng: np.random.Generator, params: Array, forward, backward,
              label: str) -> Array:
    """Run `sched`'s SGD iterations on `params`; return the loss log.

    `forward(idx, previous cache or None)` returns (logits, cache), and
    `backward(cache, dlogits)` the gradient vector in `params`' layout.
    """
    velocity = np.zeros_like(params)
    log = np.empty(sched.total_iters)
    cache = None
    for it in range(sched.total_iters):
        idx = sample_batch(ds, strategy, sched.batch_size, rng)
        logits, cache = forward(idx, cache)
        if not np.all(np.isfinite(logits)):
            raise DivergenceError(f"non-finite logits at {label} {it}")
        value, dlogits = total_loss(spec, logits, ds.labels[idx])
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite loss at {label} {it}")
        sgd_step(params, backward(cache, dlogits), velocity, lr_at(sched, it),
                 sched.momentum, sched.weight_decay)
        log[it] = value
    return log


def train_stage1(ds: FeatureDataset, cfg: TrainConfig,
                 decoder_config: DecoderConfig,
                 rng: np.random.Generator) -> tuple[DecoderHead, Array]:
    """Stage one: train the head under cfg.loss with instance-balanced batches.

    The head's shape comes from `decoder_config` alone; `cfg.depth`, `heads`,
    `mlp_ratio` and `dropout` are not read here (`lthead train` builds
    `decoder_config` from them). Returns the trained head and the
    per-iteration loss log.
    """
    spec = make_loss_spec(cfg.loss, _class_stats(ds, decoder_config),
                          gamma=cfg.focal_gamma, max_margin=cfg.ldam_max_margin,
                          lam=cfg.lade_lambda)
    head = init_decoder(decoder_config, rng)
    grads = DecoderHead(decoder_config)  # overwritten by every backward pass
    # each forward overwrites the last one's cache block by block
    log = _sgd_loop(
        cfg, ds, INSTANCE_BALANCED, spec, rng, head.params.vector,
        lambda idx, cache: forward_batch(head, ds.features[idx], rng,
                                         train_mode=True, out=cache),
        lambda cache, dlogits: backward_batch(head, cache, dlogits,
                                              out=grads)[0].vector,
        "iteration")
    return head, log


def stage2_schedule(cfg: TrainConfig) -> TrainConfig:
    """The stage-one schedule compressed to the stage-two iteration count."""
    if cfg.stage2_iters == 0:
        return replace(cfg, total_iters=0, warmup_iters=0)
    if cfg.total_iters > 0:
        warmup = int(round(cfg.warmup_iters * cfg.stage2_iters / cfg.total_iters))
    else:
        warmup = 0
    warmup = min(warmup, cfg.stage2_iters - 1)
    return replace(cfg, total_iters=cfg.stage2_iters, warmup_iters=warmup)


def train_stage2(head: DecoderHead, ds: FeatureDataset, cfg: TrainConfig,
                 variant: str, rng: np.random.Generator,
                 ) -> tuple[Calibrator, Array]:
    """Stage two: freeze the head and train only the calibrator.

    A frozen head makes each sample's pooled feature and logits constant, so
    one `EVAL_CHUNK` pass forms the (N, D) pooled features and, when K <= D,
    the (N, K) logit table too: a step gathers its batch's rows, and the
    table is never larger than the pooled array. When K > D each step forms
    its batch's logits from the pooled rows instead, so no (N, K) array
    exists. Iterations touch only calibrator parameters.
    """
    k, d = head.config.num_classes, head.config.dim
    cal = init_calibrator(variant, k, d, rng)
    spec = make_loss_spec(RECIPES[variant].loss, _class_stats(ds, head.config))
    pooled = np.empty((ds.num_samples, d))
    table = np.empty((ds.num_samples, k)) if k <= d else None
    for start in range(0, ds.num_samples, EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        pooled[rows] = pool_batch(head, ds.features[rows], None, train_mode=False)[0]
        if table is not None:
            table[rows] = linear(pooled[rows], head.cls_weight, head.cls_bias)
    norms = context_weight_norms(head.cls_weight)

    def forward(idx, _):
        batch = pooled[idx]
        logits = (linear(batch, head.cls_weight, head.cls_bias)
                  if table is None else table[idx])
        return cal_mod.apply_batch(cal, batch, logits, norms)
    log = _sgd_loop(
        stage2_schedule(cfg), ds, RECIPES[variant].sampling, spec, rng,
        cal.params.vector, forward,
        lambda cache, dadj: cal_mod.backward_batch(cal, cache, dadj).vector,
        "stage-2 iteration")
    return cal, log


@dataclass
class EvalReport:
    overall: float
    many: float
    medium: float
    few: float
    precision: float
    recall: float
    f1: float
    per_class_accuracy: Array  # (K,), nan for classes absent from the test set
    fingerprint: str = ""

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "many": self.many, "medium": self.medium, "few": self.few,
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
            "per_class_accuracy": [None if math.isnan(a) else a
                                   for a in self.per_class_accuracy],
            "fingerprint": self.fingerprint,
        }


def metrics_from_predictions(predictions, labels, stats: ClassStats,
                             fingerprint: str = "") -> EvalReport:
    """Accuracy, group accuracies, and macro P/R/F1 from raw predictions.

    Group accuracies average per-class accuracy over the classes in each
    training-count group. Classes with no test samples are excluded from
    every macro average (with a warning). Macro averages accumulate in class
    order so results are reproducible digit for digit.
    """
    k = stats.num_classes
    predictions = class_labels(predictions, k, "predictions")
    labels = class_labels(labels, k)
    if predictions.shape != labels.shape:
        raise DataError(f"predictions {predictions.shape} and labels "
                        f"{labels.shape} must be matching vectors")
    if labels.size == 0:
        raise DataError("cannot evaluate on an empty test set")

    support = np.bincount(labels, minlength=k)
    predicted = np.bincount(predictions, minlength=k)
    true_pos = np.bincount(labels[labels == predictions], minlength=k)
    present = support > 0
    if not np.all(present):
        warnings.warn(f"{int(np.sum(~present))} classes have no test "
                      "samples and are excluded from macro averages")

    tp, pred = true_pos[present], predicted[present]
    recall = tp / support[present]
    precision = np.divide(tp, pred, out=np.zeros(recall.size), where=pred > 0)
    denom = precision + recall
    f1 = np.divide(2.0 * precision * recall, denom,
                   out=np.zeros(recall.size), where=denom > 0)
    per_class_acc = np.full(k, np.nan)
    per_class_acc[present] = recall
    groups = stats.groups[present]
    many, medium, few = (_class_order_mean(recall[groups == g])
                         for g in (GROUP_MANY, GROUP_MEDIUM, GROUP_FEW))
    return EvalReport(float(np.sum(true_pos)) / labels.size, many, medium, few,
                      *map(_class_order_mean, (precision, recall, f1)),
                      per_class_acc, fingerprint)


def _class_order_mean(values: Array) -> float:
    """Sum left to right in class order (`np.mean` adds pairwise); NaN if empty."""
    return float(np.cumsum(values)[-1] / values.size) if values.size else math.nan


def evaluate(head: DecoderHead, calibrator: Calibrator | None,
             test_ds: FeatureDataset, stats: ClassStats) -> EvalReport:
    """Deterministic eval-mode metrics; `stats` must come from training."""
    _check_matches_head(test_ds, head.config)
    if test_ds.role == "test" and not test_ds.is_class_balanced():
        warnings.warn("test set is not class-balanced; overall accuracy and "
                      "macro recall will diverge")
    norms = context_weight_norms(head.cls_weight)
    predictions = np.empty(test_ds.num_samples, dtype=np.int64)
    for start in range(0, test_ds.num_samples, EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        logits, cache = forward_batch(head, test_ds.features[rows], None,
                                      train_mode=False)
        if calibrator is not None:
            logits, _ = cal_mod.apply_batch(calibrator, cache.pooled, logits, norms)
        predictions[rows] = np.argmax(logits, axis=1)
    fp = config_fingerprint(head.config,
                            None if calibrator is None else calibrator.variant)
    return metrics_from_predictions(predictions, test_ds.labels, stats,
                                    fingerprint=fp)


def render_report(report: EvalReport) -> str:
    """Human-readable metrics table."""
    lines = [
        "metric          value",
        f"overall         {report.overall:.6f}",
        f"many-shot       {report.many:.6f}",
        f"medium-shot     {report.medium:.6f}",
        f"few-shot        {report.few:.6f}",
        f"macro precision {report.precision:.6f}",
        f"macro recall    {report.recall:.6f}",
        f"macro f1        {report.f1:.6f}",
        f"fingerprint     {report.fingerprint}",
    ]
    return "\n".join(lines) + "\n"


def report_json(report: EvalReport) -> str:
    """Machine-readable metrics document; key order is fixed."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _unit_rows(matrix: Array, what: str) -> Array:
    """`matrix`'s rows divided by their norms, which must be finite and nonzero."""
    norms = np.sqrt(np.sum(matrix ** 2, axis=1, keepdims=True))
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise DataError(f"{what} must have finite, nonzero norms")
    return matrix / norms


@dataclass(frozen=True)
class TextClassEmbeddings:
    """Class text embeddings, one row per class, stored as a fresh read-only
    matrix of the given rows divided by their norms."""
    matrix: Array  # (K, D)

    def __post_init__(self):
        matrix = real_values(self.matrix, "class embeddings")
        if matrix.ndim != 2:
            raise ShapeError("class embeddings must be a (K, D) matrix")
        if matrix.shape[0] == 0:
            raise ShapeError("class embeddings need at least one row")
        unit = _unit_rows(matrix, "class embeddings")  # a fresh array
        unit.flags.writeable = False
        object.__setattr__(self, "matrix", unit)

    @staticmethod
    def from_matrix(matrix: Array) -> "TextClassEmbeddings":
        return TextClassEmbeddings(matrix)


def zero_shot_classify(image_embs: Array,
                       class_embs: TextClassEmbeddings) -> Array:
    """Cosine-similarity classification against class text embeddings.

    Returns each image's cosine argmax, (N,) int64, formed `EVAL_CHUNK` rows
    at a time: the peak is one (`EVAL_CHUNK`, K) block of cosines. Image rows
    follow the class rows' rule, finite and nonzero norms; rescaling one by a
    positive constant that keeps the rule changes its result only by rounding.
    """
    image_embs = real_values(image_embs, "image embeddings")
    if image_embs.ndim != 2 or image_embs.shape[1] != class_embs.matrix.shape[1]:
        raise ShapeError("image embeddings must be (N, D) with matching D")
    predictions = np.empty(image_embs.shape[0], dtype=np.int64)
    for start in range(0, image_embs.shape[0], EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        unit = _unit_rows(image_embs[rows], "image embeddings")
        predictions[rows] = np.argmax(unit @ class_embs.matrix.T, axis=1)
    return predictions
