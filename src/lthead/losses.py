"""Imbalanced classification losses over logits.

One unified form covers every variant: per-class loss weights, additive
per-class logit biases, and per-class margins subtracted from the true-class
logit, with an optional focal modulation. Each evaluation returns the scalar
loss (mean over the batch) and its exact gradient with respect to the logits.

Variants:
    ce      plain cross-entropy
    cbw     inverse-frequency loss weights, normalized to mean 1
    focal   (1 - p_true)^gamma modulation
    ldam    margins proportional to n_class^(-1/4)
    bsm     logit biases log(n_class), the balanced-softmax shift
    lade    bsm plus a Donsker-Varadhan disentangling regularizer
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .exceptions import ConfigError, DataError, DomainError
from .numerics import Array, check_fields, logsumexp_rows, real_values

GROUP_MANY = "many"
GROUP_MEDIUM = "medium"
GROUP_FEW = "few"

VARIANTS = ("ce", "cbw", "focal", "ldam", "bsm", "lade")


@dataclass(frozen=True)
class ClassStats:
    """Per-class counts and the priors and group tags derived from them, kept
    as read-only arrays of the stats' own. Groups follow training counts:
    many > 100, 20 <= medium <= 100, few < 20."""
    counts: Array                      # (K,) int64
    priors: Array = field(init=False)  # (K,) float64, sums to 1
    groups: Array = field(init=False)  # (K,) unicode tags

    def __post_init__(self):
        counts = _whole_numbers(self.counts, "counts").copy()
        if counts.ndim != 1 or counts.size == 0:
            raise DataError("counts must be a non-empty vector")
        values = counts.tolist()  # Python ints: exact, and cheap on short vectors
        total = sum(values)
        if min(values) < 0 or total == 0:
            raise DataError("counts must be nonnegative with a positive total")
        if total > np.iinfo(np.int64).max:
            raise DataError(f"class counts total {total}, more than int64 holds")
        priors = counts / total
        groups = np.where(counts > 100, GROUP_MANY, GROUP_MEDIUM)  # one string array
        groups[counts < 20] = GROUP_FEW
        for name, vec in (("counts", counts), ("priors", priors), ("groups", groups)):
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]


def build_class_stats(labels, num_classes: int) -> ClassStats:
    """Histogram labels into ClassStats."""
    labels = class_labels(labels, num_classes)
    if labels.size == 0:
        raise DataError("cannot build class statistics from zero labels")
    counts = np.bincount(labels, minlength=num_classes).astype(np.int64)
    if np.any(counts == 0):
        warnings.warn("some classes have zero training samples; "
                      "count-based weights and biases are undefined for them")
    return ClassStats(counts)


def _whole_numbers(values, name: str) -> Array:
    """`values` as int64, or a DataError naming `name` unless they are integers
    or whole, finite floats below 2^63."""
    try:
        values = np.asarray(values)
    except ValueError:  # a ragged nested sequence
        raise DataError(f"{name} must be an array, not a ragged sequence") from None
    kind = values.dtype.kind
    # a cast would truncate fractions, garble nan, and parse or round the rest
    if kind not in "iuf" or kind == "f" and not np.all(
            (np.trunc(values) == values) & (abs(values) < 2.0 ** 63)):
        raise DataError(f"{name} must be whole numbers below 2^63")
    return values.astype(np.int64, copy=False)


def class_labels(values, num_classes: int, name: str = "labels") -> Array:
    """`values` as an int64 vector of class ids in [0, num_classes), or a
    DataError naming `name`: the one rule for labels and predictions."""
    if not isinstance(num_classes, (int, np.integer)) or num_classes < 1:
        raise DataError(f"num_classes must be >= 1 and an integer, "
                        f"got {num_classes!r}")
    values = _whole_numbers(values, name)
    if values.ndim != 1:
        raise DataError(f"{name} must be a vector, got shape {values.shape}")
    if values.size and (values.min() < 0 or values.max() >= num_classes):
        raise DataError(f"{name} must lie in [0, {num_classes}), "
                        f"got range [{values.min()}, {values.max()}]")
    return values


def stats_from_counts(counts) -> ClassStats:
    """`ClassStats(counts)`: class statistics from a precomputed count vector."""
    return ClassStats(counts)


def _require_positive_counts(stats: ClassStats, what: str) -> Array:
    if np.any(stats.counts < 1):
        raise DataError(f"{what} needs every class count >= 1")
    return stats.counts.astype(np.float64)


def cbw_weights(stats: ClassStats) -> Array:
    """Inverse-frequency class weights, normalized to mean 1.

    Each class then contributes equally in expectation: n_j * w_j is the
    same for every class.
    """
    counts = _require_positive_counts(stats, "class-balanced weighting")
    inv = 1.0 / counts
    return inv / inv.mean()


def bsm_biases(stats: ClassStats) -> Array:
    """Balanced-softmax logit biases log(n_j).

    Equivalent to log-prior shifts up to a common constant, which the
    softmax ignores.
    """
    counts = _require_positive_counts(stats, "balanced-softmax biasing")
    return np.log(counts)


def ldam_margins(stats: ClassStats, max_margin: float = 0.5) -> Array:
    """Margins C / n_j^(1/4), scaled so the rarest class gets `max_margin`."""
    if not 0 <= max_margin < np.inf:
        raise DomainError(f"max_margin must be {'>= 0' if max_margin < 0 else 'finite'}")
    counts = _require_positive_counts(stats, "margin computation")
    raw = counts ** -0.25
    return max_margin * raw / raw.max()


@dataclass(frozen=True)
class LossSpec:
    """A loss variant with its derived per-class vectors.

    `weights`, `biases`, and `margins` are finite vectors of length K, stored
    as the spec's own read-only float64 copies; variants that do not use a
    vector leave it at its identity value.
    """
    variant: str
    weights: Array
    biases: Array
    margins: Array
    gamma: float = 2.0      # focal only
    lam: float = 0.1        # lade only

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown loss variant {self.variant!r}")
        for name in ("weights", "biases", "margins"):  # later caller edits miss them
            vec = real_values(getattr(self, name), f"loss {name}").copy()
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)
        vecs = (self.weights, self.biases, self.margins)
        if ({np.shape(v) for v in vecs} != {(np.size(self.weights),)}
                or not np.isfinite(vecs).all()):
            raise ConfigError("loss weights, biases and margins must be finite "
                              "vectors of one length")
        if np.any(self.weights <= 0):
            raise ConfigError("loss weights must be positive")
        if np.any(self.margins < 0):
            raise ConfigError("margins must be nonnegative")
        for name, value in (("focal gamma", self.gamma), ("lade lambda", self.lam)):
            if isinstance(value, Real) and value < 0:  # -inf included
                raise ConfigError(f"{name} must be >= 0")
        check_fields(self)


def make_loss_spec(variant: str, stats: ClassStats, *, gamma: float = 2.0,
                   max_margin: float = 0.5, lam: float = 0.1) -> LossSpec:
    """Build the LossSpec for a variant from class statistics."""
    k = stats.num_classes
    weights = np.ones(k)
    biases = np.zeros(k)
    margins = np.zeros(k)
    if variant == "cbw":
        weights = cbw_weights(stats)
    elif variant == "ldam":
        margins = ldam_margins(stats, max_margin)
    elif variant in ("bsm", "lade"):
        biases = bsm_biases(stats)
    return LossSpec(variant=variant, weights=weights, biases=biases,
                    margins=margins, gamma=gamma, lam=lam)


def _check_batch(logits: Array, labels, num_classes: int) -> Array:
    """`class_labels(labels, num_classes)` of a finite (batch, num_classes) batch."""
    if logits.ndim != 2 or logits.shape[1] != num_classes:
        raise DataError(
            f"logits must be (batch, {num_classes}), got {logits.shape}")
    labels = _whole_numbers(labels, "labels")
    if labels.shape != logits.shape[:1]:
        raise DataError("labels must be a vector matching the batch size")
    labels = class_labels(labels, num_classes)
    if not np.all(np.isfinite(logits)):
        raise DataError("logits must be finite")
    return labels


def lade_dv_regularizer(spec: LossSpec, logits: Array,
                        labels: Array) -> tuple[float, Array]:
    """Donsker-Varadhan disentangling term on bias-removed logits.

    With f_j = logits_j - spec.biases_j (log n_j in a lade spec), each class
    present in the batch contributes  -mean_{i: y_i = j} f_j(x_i) +
    log mean_i exp(f_j(x_i)),  and the value is `spec.lam` times their mean;
    only their columns of f are formed. The term is invariant to a constant
    shift of any column of f.
    """
    logits = real_values(logits, "logits")
    labels = _check_batch(logits, labels, spec.weights.size)
    dlogits = np.zeros_like(logits)
    return _lade_dv(spec, logits, labels, dlogits), dlogits


def _lade_dv(spec: LossSpec, logits: Array, labels: Array, out: Array) -> float:
    """`lade_dv_regularizer`'s value on checked input; adds its gradient to `out`."""
    lam, biases = spec.lam, spec.biases
    if lam == 0.0:
        return 0.0
    batch = logits.shape[0]
    present, which, members = np.unique(labels, return_inverse=True,
                                        return_counts=True)
    n_present = present.shape[0]
    cols = logits[:, present] - biases[present]
    col_max = cols.max(axis=0)
    # One contiguous row per present class: each row sum then adds the
    # column's entries in the same pairwise order as a 1-D sum would.
    expcols = np.ascontiguousarray(np.exp(cols - col_max).T)
    expsums = expcols.sum(axis=1)
    # Each class's own-label logits, grouped by class in row order. reduceat
    # starts a group from its first entry; a leading zero per group makes
    # it add the members exactly as a 1-D sum, which starts from zero, does.
    starts = np.cumsum(members) - members
    order = np.argsort(which, kind="stable")
    own = np.insert(cols[order, which[order]], starts, 0.0)
    own_mean = np.add.reduceat(own, starts + np.arange(n_present)) / members
    terms = -own_mean + col_max + np.log(expsums / batch)
    block = (lam / n_present * (expcols / expsums[:, None])).T  # (B, P)
    block[np.arange(batch), which] -= (lam / (n_present * members))[which]
    out[:, present] += block  # one add per entry: a dense add's bits
    return float(lam * np.mean(terms))


def total_loss(spec: LossSpec, logits: Array,
               labels: Array) -> tuple[float, Array]:
    """Mean loss over the batch and its exact gradient w.r.t. the logits.

    The complete objective: LADE adds `lade_dv_regularizer(spec, ...)`. K is
    the length of the spec's vectors. The gradient is a fresh array that the
    caller owns.
    """
    logits = real_values(logits, "logits")
    labels = _check_batch(logits, labels, spec.weights.size)

    batch = logits.shape[0]
    rows = np.arange(batch)
    # z is in turn the adjusted logits, the log-probs, the probs and the gradient
    z = logits + spec.biases
    z[rows, labels] -= spec.margins[labels]
    z -= logsumexp_rows(z)
    ce = -z[rows, labels]
    np.exp(z, out=z)
    if spec.variant == "focal":
        pt = z[rows, labels]
        one_minus = 1.0 - pt
        weight = one_minus ** spec.gamma
        # the term is 0 at pt == 1 (0 ** negative is inf) and pt == 0 (ce may be inf)
        term = np.multiply(spec.gamma * pt, ce, where=pt > 0, out=np.zeros(batch))
        coef = weight + term * np.power(
            one_minus, spec.gamma - 1.0, where=one_minus > 0, out=np.zeros(batch))
    else:
        weight = coef = spec.weights[labels]
    value = float(np.mean(weight * ce))
    z[rows, labels] -= 1.0
    z *= coef[:, None]
    z /= batch
    if spec.variant == "lade":  # the batch was checked above
        value += _lade_dv(spec, logits, labels, z)
    return value, z
