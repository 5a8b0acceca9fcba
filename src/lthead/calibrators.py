"""Stage-two logit adjusters applied on top of a frozen head.

Four variants:
    crt       a freshly re-initialized linear classifier on pooled features
    lws       one learnable scale per class logit
    disalign  class-wise affine adjustment gated by an instance confidence
    marc      class-wise scale plus a shift in classifier-row-norm units,
              exactly 2K parameters

Except for CRT, each variant initializes at an identity configuration that
reproduces the original logits bit for bit. Each variant is one `RECIPES`
entry: its parameter layout, the batch sampler and the loss that stage two
trains it with, and its forward, which returns its own backward.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .data import CLASS_BALANCED, INSTANCE_BALANCED
from .exceptions import ConfigError, ShapeError, StateError
from .numerics import FAN_IN, Array, ParamVector, linear


def calibrator_layout(variant: str, num_classes: int, dim: int) -> list:
    """(name, shape, initial value) of a variant's parameters, storage order."""
    if variant not in RECIPES:
        raise ConfigError(f"unknown calibrator variant {variant!r}")
    sizes = {"K": num_classes, "D": dim}
    return [(name, tuple(sizes.get(n, n) for n in shape), init)
            for name, shape, init in RECIPES[variant].layout]


def context_weight_norms(cls_weight: Array) -> Array:
    """Row norms of the classifier weight; recompute if the classifier changes."""
    return np.sqrt(np.sum(np.asarray(cls_weight, dtype=np.float64) ** 2, axis=1))


class Calibrator:
    """A stage-two calibrator whose parameters are views into one vector.

    The names in the variant's layout read as attributes (`cal.scales`,
    `cal.omega`, ...). Without `vector` every parameter starts at zero.
    """

    def __init__(self, variant: str, num_classes: int, dim: int,
                 vector: Array | None = None):
        self.variant = variant
        self.num_classes, self.dim = num_classes, dim
        self.params = ParamVector(calibrator_layout(variant, num_classes, dim),
                                  vector)
        vars(self).update(self.params)

    def param_dict(self) -> dict[str, Array]:
        return dict(self.params)


def init_calibrator(variant: str, num_classes: int, dim: int,
                    rng: np.random.Generator) -> Calibrator:
    """Fresh calibrator.

    CRT draws a new scaled-uniform fan-in classifier from `rng`. The other
    variants start at their identity configurations and draw nothing.
    """
    cal = Calibrator(variant, num_classes, dim)
    cal.params.initialize(rng)
    return cal


def _sigmoid(x: Array) -> Array:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _crt(cal, pooled, logits, weight_norms):
    def backward(grads, dadjusted):
        np.matmul(dadjusted.T, pooled, out=grads["weight"])
        np.sum(dadjusted, axis=0, out=grads["bias"])
    return linear(pooled, cal.weight, cal.bias), backward


def _lws(cal, pooled, logits, weight_norms):
    def backward(grads, dadjusted):
        grads["scales"][...] = np.sum(logits * dadjusted, axis=0)
    return logits * cal.scales, backward


def _disalign(cal, pooled, logits, weight_norms):
    sigma = _sigmoid(pooled @ cal.conf_weight + cal.conf_bias[0])
    gated = cal.alpha * logits + cal.beta

    def backward(grads, dadjusted):
        dsigma = np.sum(dadjusted * (gated - logits), axis=1)
        dpre = dsigma * sigma * (1.0 - sigma)
        grads["alpha"][...] = np.sum(sigma[:, None] * logits * dadjusted, axis=0)
        grads["beta"][...] = np.sum(sigma[:, None] * dadjusted, axis=0)
        grads["conf_weight"][...] = pooled.T @ dpre
        grads["conf_bias"][...] = dpre.sum()
    return sigma[:, None] * gated + (1.0 - sigma)[:, None] * logits, backward


def _marc(cal, pooled, logits, weight_norms):
    def backward(grads, dadjusted):
        grads["omega"][...] = np.sum(logits * dadjusted, axis=0)
        grads["beta"][...] = np.sum(weight_norms * dadjusted, axis=0)
    return cal.omega * logits + cal.beta * weight_norms, backward


class Recipe(NamedTuple):
    layout: tuple     # (name, shape, initial value) per parameter, storage order
    sampling: str     # stage-two batch sampler, a `data` strategy
    loss: str         # stage-two loss, a `losses.VARIANTS` name
    apply: Callable   # (cal, pooled, logits, weight_norms) -> (adjusted logits,
                      # backward(grads, dadjusted), which writes `grads`)


# Shapes are in units of K (classes) and D (pooled feature dim); every
# variant but CRT starts at its identity. The order is the checkpoint's tag
# order: tag = position + 1, and 0 means no calibrator.
RECIPES = {
    "crt": Recipe((("weight", ("K", "D"), FAN_IN), ("bias", ("K",), 0.0)),
                  CLASS_BALANCED, "ce", _crt),
    "lws": Recipe((("scales", ("K",), 1.0),), CLASS_BALANCED, "ce", _lws),
    "disalign": Recipe((("alpha", ("K",), 1.0), ("beta", ("K",), 0.0),
                        ("conf_weight", ("D",), 0.0), ("conf_bias", (1,), 0.0)),
                       INSTANCE_BALANCED, "cbw", _disalign),
    "marc": Recipe((("omega", ("K",), 1.0), ("beta", ("K",), 0.0)),
                   INSTANCE_BALANCED, "bsm", _marc),
}
CALIBRATOR_VARIANTS = tuple(RECIPES)


class ApplyCache(NamedTuple):
    variant: str
    shape: tuple        # the adjusted logits' shape
    backward: Callable  # the variant's backward over this batch


def apply_batch(cal: Calibrator, pooled: Array, logits: Array,
                weight_norms: Array) -> tuple[Array, ApplyCache]:
    """Adjust a batch of logits: (B, D) pooled features, (B, K) logits."""
    pooled = np.asarray(pooled, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    weight_norms = np.asarray(weight_norms, dtype=np.float64)
    if pooled.ndim != 2 or logits.ndim != 2 or pooled.shape[0] != logits.shape[0]:
        raise ShapeError("pooled features and logits must share a batch axis")
    if pooled.shape[1] != cal.dim or logits.shape[1] != cal.num_classes \
            or weight_norms.shape != (cal.num_classes,):
        raise ShapeError(f"{cal.variant} calibrator expects {cal.dim}-dim pooled "
                         f"features and {cal.num_classes} logits and norms")
    adjusted, backward = RECIPES[cal.variant].apply(cal, pooled, logits, weight_norms)
    return adjusted, ApplyCache(cal.variant, logits.shape, backward)


def backward_batch(cal: Calibrator, cache: ApplyCache,
                   dadjusted: Array) -> ParamVector:
    """Parameter gradients of a cached apply_batch, in the calibrator's layout.

    Stage two trains the calibrator on a frozen head, so no gradient flows
    to the pooled features or the logits, and none is formed.
    """
    if cache.variant != cal.variant:
        raise StateError("cache was produced by a different calibrator variant")
    dadjusted = np.asarray(dadjusted, dtype=np.float64)
    if dadjusted.shape != cache.shape:
        raise StateError("gradient shape does not match the cached apply")
    grads = ParamVector(cal.params.layout)
    cache.backward(grads, dadjusted)
    return grads
