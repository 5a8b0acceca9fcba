"""Deterministic float64 numerics: flat parameter storage and its tiled SGD
update, stable reductions, layers (affine, layer norm, GELU) with analytic
backward passes, and a central-difference gradient checker for every backward.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import (DataError, DomainError, EvaluationError, ShapeError,
                         StateError)

Array = np.ndarray

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator, the only randomness source in the library.

    Identical seeds reproduce identical draw sequences on every platform.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


FAN_IN = "fan_in"  # initial value: draw U(-b, b) with b = 1/sqrt(fan-in)


def layout_size(layout) -> int:
    """Number of floats a (name, shape, initial value) layout stores."""
    return sum(math.prod(shape) for _, shape, _ in layout)


class ParamVector(Mapping):
    """Named tensors stored back to back in one contiguous float64 vector.

    `layout` lists (name, shape, initial value) in storage order. Each name
    maps to a reshaped view of `vector`, so writes through a name land in the
    vector and whole-vector arithmetic updates every tensor at once.
    """

    def __init__(self, layout, vector: Array | None = None):
        self.layout = tuple(layout)
        size = layout_size(self.layout)
        if vector is None:
            vector = np.zeros(size)
        if vector.shape != (size,) or vector.dtype != np.float64:
            raise ShapeError(f"parameter vector must be ({size},) float64, "
                             f"got {vector.shape} {vector.dtype}")
        self.vector = vector
        self._views: dict[str, Array] = {}
        pos = 0
        for name, shape, _ in self.layout:
            n = math.prod(shape)
            self._views[name] = vector[pos:pos + n].reshape(shape)
            pos += n

    def __getitem__(self, name: str) -> Array:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def initialize(self, rng: np.random.Generator) -> None:
        """Fill every tensor with its declared initial value.

        FAN_IN tensors are (out, in) matrices drawn from `rng` in storage
        order, so a given seed yields bit-identical parameters.
        """
        for name, shape, init in self.layout:
            if init == FAN_IN:
                bound = 1.0 / math.sqrt(shape[1])
                self._views[name][...] = rng.uniform(-bound, bound, size=shape)
            else:
                self._views[name][...] = init


def logsumexp_rows(m: Array) -> Array:
    """Row-wise log-sum-exp of a 2-D array, returned as shape (rows, 1)."""
    mx = np.max(m, axis=1, keepdims=True)
    e = m - mx  # the one (rows, cols) temporary
    np.exp(e, out=e)
    return mx + np.log(np.sum(e, axis=1, keepdims=True))


def real_values(values, name: str) -> Array:
    """`values` as float64; a complex, string or object array is a DataError."""
    try:
        values = np.asarray(values)
    except ValueError:  # a ragged nested sequence
        raise DataError(f"{name} must be an array, not a ragged sequence") from None
    if values.dtype.kind not in "biuf":
        raise DataError(f"{name} must be real numbers, got dtype {values.dtype}")
    return values.astype(np.float64, copy=False)


def softmax_rows(logits: Array) -> Array:
    """Row-stochastic softmax of a 2-D array, computed via log-sum-exp."""
    logits = real_values(logits, "logits")
    if logits.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D array, got {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise DomainError("softmax_rows requires finite logits")
    out = logits - logsumexp_rows(logits)  # the result's one buffer
    return np.exp(out, out=out)


def softmax_last(x: Array) -> Array:
    """Softmax over the last axis in place, returning `x`; no validation."""
    x -= np.max(x, axis=-1, keepdims=True)
    x /= np.sum(np.exp(x, out=x), axis=-1, keepdims=True)
    return x


def linear(x: Array, weight: Array, bias: Array) -> Array:
    """x @ weight.T + bias over any (..., in) stack, as one 2-D GEMM."""
    out = x.reshape(-1, x.shape[-1]) @ weight.T
    out += bias
    return out.reshape(*x.shape[:-1], weight.shape[0])


def linear_backward(dout: Array, x: Array, weight: Array,
                    dweight: Array, dbias: Array) -> Array:
    """`linear`'s backward: write `dweight` and `dbias` in place; return dx."""
    dflat = dout.reshape(-1, dout.shape[-1])
    np.matmul(dflat.T, x.reshape(-1, x.shape[-1]), out=dweight)
    np.sum(dflat, axis=0, out=dbias)
    return (dflat @ weight).reshape(*dout.shape[:-1], weight.shape[1])


@dataclass
class LayerNormCache:
    xhat: Array
    inv_std: Array
    gamma: Array

    def output(self, beta: Array) -> Array:
        """The layer norm's output, formed by the forward's own operations."""
        y = self.gamma * self.xhat
        y += beta
        return y


# GELU and the SGD update run over tiles of at most this many float64 values
# (128 KB), so that their passes hit L2 instead of streaming a whole
# activation through memory once per operation.
_TILE = 16384


def _row_tiles(size: int) -> tuple[int, list[slice]]:
    """Values per tile (at most _TILE) and the tiles of a flat length `size`.

    The first number is the size a kernel's scratch buffers need.
    """
    return min(size, _TILE), [slice(i, i + _TILE) for i in range(0, size, _TILE)]


def layer_norm(x: Array, gamma: Array, beta: Array) -> tuple[Array, LayerNormCache]:
    """Normalize over the last axis, then scale and shift.

    Accepts a vector or any (..., D) stack of vectors; `gamma` and `beta`
    are (D,); 1e-5 is added to each variance. Returns the output and the
    cache the backward pass needs.
    The input is read in C order, so every row is reduced over unit-stride
    values whatever the input's layout.
    """
    x = np.asarray(x, dtype=np.float64, order="C")
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if x.ndim == 0:
        raise ShapeError("layer_norm needs a vector or a (..., D) stack, "
                         "got a 0-d scalar")
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm parameter length {gamma.shape}/{beta.shape} "
            f"does not match feature size {x.shape[-1]}")
    d = x.shape[-1]
    mean = np.sum(x, axis=-1, keepdims=True)
    mean /= d
    xhat = x - mean
    var = np.sum(xhat * xhat, axis=-1, keepdims=True)
    var /= d
    var += 1e-5
    inv_std = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv_std
    cache = LayerNormCache(xhat, inv_std, gamma)
    return cache.output(beta), cache


def layer_norm_backward(cache: LayerNormCache,
                        dy: Array) -> tuple[Array, Array, Array]:
    """Gradients (dx, dgamma, dbeta) for a cached layer_norm call.

    dgamma/dbeta are summed over all leading axes of `dy` in one reduction
    each; dx's row sums run over C-ordered rows, like the forward's.
    """
    xhat, inv_std, gamma = cache.xhat, cache.inv_std, cache.gamma
    lead = tuple(range(dy.ndim - 1))
    dgamma = np.sum(dy * xhat, axis=lead)
    dbeta = np.sum(dy, axis=lead)
    d = dy.shape[-1]
    dxhat = np.multiply(dy, gamma, order="C")
    m1 = np.sum(dxhat, axis=-1, keepdims=True)
    m1 /= d
    m2 = np.sum(dxhat * xhat, axis=-1, keepdims=True)
    m2 /= d
    dx = dxhat  # formed in place
    dx -= m1
    dx -= xhat * m2
    dx *= inv_std
    return dx, dgamma, dbeta


def _gelu(x, derivative: bool, out: Array | None = None) -> tuple:
    """The tiled tanh-GELU pass: (value,) or (value, derivative).

    Works through the flattened input in tiles of at most _TILE values, so
    that every elementwise pass over a tile hits cache. Powers are expanded
    into multiplications, an order of magnitude faster than float64 `**`.
    The derivative reuses each tile's x^2 and tanh. Each tile's value is
    written last, in one pass that reads the input for the last time, so
    `out` (a C-contiguous float64 array of x's shape) may be x itself.
    0-d input without `out` gives scalars.
    """
    x = np.asarray(x, dtype=np.float64)
    value = np.empty(x.shape) if out is None else out
    if out is not None and (
            not isinstance(out, np.ndarray) or out.shape != x.shape
            or out.dtype != np.float64 or not out.flags.c_contiguous
            or out is not x and np.may_share_memory(out, x)):
        raise ShapeError(f"gelu out= must be a C-contiguous float64 {x.shape} "
                         "array: the input itself or one disjoint from it")
    outs = (value, np.empty(x.shape)) if derivative else (value,)
    flat, vflat, gflat = x.reshape(-1), value.reshape(-1), outs[-1].reshape(-1)
    step, tiles = _row_tiles(flat.size)
    t_buf = np.empty(step)
    x2_buf, h_buf = (np.empty(step), np.empty(step)) if derivative else (t_buf, t_buf)
    for s in tiles:
        xs = flat[s]
        x2, t, h = x2_buf[:len(xs)], t_buf[:len(xs)], h_buf[:len(xs)]
        np.multiply(xs, xs, out=x2)
        np.multiply(x2, _GELU_A, out=t)
        t += 1.0
        t *= xs
        t *= _GELU_C
        np.tanh(t, out=t)
        np.add(t, 1.0, out=h)
        h *= 0.5  # 0.5 * (1 + tanh), also the derivative's last term
        if derivative:
            du = x2
            du *= 3.0 * _GELU_A
            du += 1.0
            du *= _GELU_C
            g = gflat[s]
            np.multiply(t, t, out=g)
            np.subtract(1.0, g, out=g)
            g *= du
            g *= xs
            g *= 0.5
            g += h
        np.multiply(h, xs, out=vflat[s])
    return tuple(o[()] for o in outs) if x.ndim == 0 and out is None else outs


def gelu_with_grad(x, out: Array | None = None) -> tuple[Array, Array]:
    """tanh-approximation GELU and its derivative; the value goes into `out`
    when given, which may be `x` itself."""
    return _gelu(x, True, out)


def gelu(x, out: Array | None = None):
    """tanh-approximation GELU: 0.5*x*(1 + tanh(c*(x + a*x^3))).

    The value alone, for inference: `gelu_with_grad`'s pass without the
    derivative steps, so the two agree bit for bit. `out` is as there.
    """
    return _gelu(x, False, out)[0]


def sgd_step(params: Array, grads: Array, velocity: Array, lr: float,
             momentum: float, weight_decay: float) -> None:
    """Classic SGD with momentum; the L2 term is folded into the gradient.

    `params`, `grads` and `velocity` are flat vectors sharing one layout; a
    run's velocity starts at zero. Updates parameters and velocity in place.
    """
    if grads.shape != params.shape or velocity.shape != params.shape:
        raise ShapeError(f"gradient {grads.shape} and velocity "
                         f"{velocity.shape} must match parameters "
                         f"{params.shape}")
    # The six passes run tile by tile through one tile-sized scratch buffer,
    # which holds the decayed gradient and then the update; each element
    # sees the whole-vector expressions' operations in their order.
    step, tiles = _row_tiles(params.size)
    buf = np.empty(step)
    for s in tiles:
        v = velocity[s]
        g = buf[:v.size]
        v *= momentum
        if weight_decay != 0.0:
            np.multiply(params[s], weight_decay, out=g)
            g += grads[s]
            v += g
        else:
            v += grads[s]
        np.multiply(v, lr, out=g)
        params[s] -= g


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> Array:
    """Training-time inverted-scaling dropout mask: entries are 0 or 1/(1-rate).

    Rate 0 returns all ones without touching `rng`; a positive rate draws
    from it.
    """
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    if rng is None:
        raise StateError(f"train-mode dropout at rate {rate} needs an rng, got None")
    r = rng.random(shape)
    return dropout_scale(np.less(r, 1.0 - rate), rate, out=r)


def dropout_scale(kept, rate: float, out: Array | None = None) -> Array:
    """`dropout_mask`'s float mask from its bool kept-mask: kept / (1-rate)."""
    return np.divide(kept, 1.0 - rate, out=out)


@dataclass
class GradCheckReport:
    max_abs_err: float
    max_rel_err: float
    worst_index: int
    passed: bool


def finite_diff_check(f: Callable[[Array], tuple[float, Array]],
                      params: Array, tol: float = 1e-5) -> GradCheckReport:
    """Compare f's analytic gradient with central finite differences.

    `f` maps a flat float64 parameter vector to (value, gradient). Every
    coordinate is perturbed by +/- 1e-5 and the centered difference is
    compared against the analytic gradient at the unperturbed point.
    Relative error uses max(|analytic|, |numeric|, 1e-4) as denominator, so
    coordinates whose gradient is below 1e-4 are judged absolutely.
    """
    eps, floor = 1e-5, 1e-4
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1:
        raise ShapeError("finite_diff_check expects a flat parameter vector")
    value, grad = f(params)
    if not np.isfinite(value):
        raise EvaluationError(f"function value is not finite: {value}")
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if grad.shape != params.shape:
        raise ShapeError("analytic gradient length does not match parameters")

    numeric = np.empty_like(params)
    work = params.copy()
    for i in range(params.size):
        orig = work[i]
        work[i] = orig + eps
        up = f(work)[0]
        work[i] = orig - eps
        down = f(work)[0]
        work[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise EvaluationError(f"non-finite value at coordinate {i}")
        numeric[i] = (up - down) / (2.0 * eps)

    abs_err = np.abs(grad - numeric)
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), floor)
    rel_err = abs_err / denom
    worst = int(np.argmax(rel_err)) if params.size else 0
    max_rel = float(rel_err[worst]) if params.size else 0.0
    max_abs = float(np.max(abs_err)) if params.size else 0.0
    return GradCheckReport(max_abs_err=max_abs, max_rel_err=max_rel,
                           worst_index=worst, passed=bool(max_rel < tol))
