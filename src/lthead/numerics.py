"""Deterministic float64 numerics: flat parameter storage, stable reductions,
layer building blocks with analytic backward passes, and a central-difference
gradient checker used to validate every backward in the library.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DomainError, EvaluationError, ShapeError, StateError

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
    return mx + np.log(np.sum(np.exp(m - mx), axis=1, keepdims=True))


def softmax_rows(logits: Array) -> Array:
    """Row-stochastic softmax of a 2-D array, computed via log-sum-exp."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D array, got {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise DomainError("softmax_rows requires finite logits")
    return np.exp(logits - logsumexp_rows(logits))


def softmax_last(x: Array) -> Array:
    """Softmax over the last axis, no validation. Internal hot-path helper."""
    mx = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - mx)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass
class LayerNormCache:
    xhat: Array
    inv_std: Array
    gamma: Array


# Elementwise kernels run over tiles of at most this many float64 values
# (128 KB), so that their passes hit L2 instead of streaming a whole
# activation through memory once per operation.
_TILE = 16384


def _row_tiles(rows: int, row_len: int) -> tuple[int, list[slice]]:
    """Rows per tile (at most _TILE values, one row at least) and the tiles.

    The row count is the size a kernel's scratch buffers need.
    """
    step = max(1, _TILE // max(row_len, 1))
    return min(rows, step), [slice(i, i + step) for i in range(0, rows, step)]


def layer_norm(x: Array, gamma: Array, beta: Array,
               eps: float = 1e-5) -> tuple[Array, LayerNormCache]:
    """Normalize over the last axis, then scale and shift.

    Accepts a vector or any (..., D) stack of vectors; `gamma` and `beta`
    are (D,). Returns the output and the cache the backward pass needs.
    Rows are processed in C order, in tiles; every row sees the same
    operations in the same order whatever its tile or the input's layout.
    """
    x = np.asarray(x, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm parameter length {gamma.shape}/{beta.shape} "
            f"does not match feature size {x.shape[-1]}")
    if eps <= 0:
        raise DomainError("layer_norm eps must be positive")
    d = x.shape[-1]
    x2d = np.ascontiguousarray(x.reshape(math.prod(x.shape[:-1]), d))
    y, xhat = np.empty(x2d.shape), np.empty(x2d.shape)
    inv_std = np.empty((x2d.shape[0], 1))
    step, tiles = _row_tiles(x2d.shape[0], d)
    sq = np.empty((step, d))
    for s in tiles:
        centered, var = xhat[s], inv_std[s]
        tsq = sq[:len(centered)]
        mean = np.sum(x2d[s], axis=-1, keepdims=True)
        mean /= d
        np.subtract(x2d[s], mean, out=centered)
        np.multiply(centered, centered, out=tsq)
        np.sum(tsq, axis=-1, keepdims=True, out=var)
        var /= d
        var += eps
        np.divide(1.0, np.sqrt(var, out=var), out=var)
        centered *= var
        np.multiply(gamma, centered, out=y[s])
        y[s] += beta
    return y.reshape(x.shape), LayerNormCache(
        xhat.reshape(x.shape), inv_std.reshape(x.shape[:-1] + (1,)), gamma)


def layer_norm_backward(cache: LayerNormCache,
                        dy: Array) -> tuple[Array, Array, Array]:
    """Gradients (dx, dgamma, dbeta) for a cached layer_norm call.

    dgamma/dbeta are summed over all leading axes of `dy` in one reduction
    each; dx is computed in row tiles, like the forward.
    """
    xhat, inv_std, gamma = cache.xhat, cache.inv_std, cache.gamma
    lead = tuple(range(dy.ndim - 1))
    dgamma = np.sum(dy * xhat, axis=lead)
    dbeta = np.sum(dy, axis=lead)
    d = dy.shape[-1]
    rows = math.prod(dy.shape[:-1])
    dy2d, xhat2d = dy.reshape(rows, d), xhat.reshape(rows, d)
    inv2d = inv_std.reshape(rows, 1)
    dx = np.empty(dy2d.shape)
    step, tiles = _row_tiles(rows, d)
    tmp = np.empty((step, d))
    for s in tiles:
        dxhat, xh = dx[s], xhat2d[s]
        t = tmp[:len(dxhat)]
        np.multiply(dy2d[s], gamma, out=dxhat)
        m1 = np.sum(dxhat, axis=-1, keepdims=True)
        m1 /= d
        np.multiply(dxhat, xh, out=t)
        m2 = np.sum(t, axis=-1, keepdims=True)
        m2 /= d
        dxhat -= m1
        np.multiply(xh, m2, out=t)
        dxhat -= t
        dxhat *= inv2d[s]
    return dx.reshape(dy.shape), dgamma, dbeta


def gelu_with_grad(x) -> tuple[Array, Array]:
    """tanh-approximation GELU and its derivative, computed together.

    Works through the flattened input in tiles of at most _TILE values,
    so that the 18 elementwise passes over each tile hit cache. Value and
    derivative share each tile's x^2 and tanh; powers are expanded into
    multiplications, which is an order of magnitude faster than float64
    `**`. Each element sees the same operations whatever its tile, so the
    value equals `gelu`'s bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    value, grad = np.empty(x.shape), np.empty(x.shape)
    vflat, gflat = value.reshape(-1), grad.reshape(-1)
    step, tiles = _row_tiles(flat.size, 1)
    x2_buf, t_buf, half_buf = np.empty(step), np.empty(step), np.empty(step)
    for s in tiles:
        xs = flat[s]
        x2, t, half_1pt = x2_buf[:len(xs)], t_buf[:len(xs)], half_buf[:len(xs)]
        np.multiply(xs, xs, out=x2)
        np.multiply(x2, _GELU_A, out=t)
        t += 1.0
        t *= xs
        t *= _GELU_C
        np.tanh(t, out=t)
        np.add(t, 1.0, out=half_1pt)
        half_1pt *= 0.5
        np.multiply(half_1pt, xs, out=vflat[s])
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
        g += half_1pt
    if x.ndim == 0:
        return value[()], grad[()]
    return value, grad


def gelu(x):
    """tanh-approximation GELU: 0.5*x*(1 + tanh(c*(x + a*x^3))).

    The value alone, for inference, tiled like `gelu_with_grad`. It repeats
    that function's operation order, so the two agree bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.empty(x.shape)
    oflat = out.reshape(-1)
    _, tiles = _row_tiles(flat.size, 1)
    for s in tiles:
        xs, u = flat[s], oflat[s]
        np.multiply(xs, xs, out=u)
        u *= _GELU_A
        u += 1.0
        u *= xs
        u *= _GELU_C
        np.tanh(u, out=u)
        u += 1.0
        u *= 0.5
        u *= xs
    return out[()] if x.ndim == 0 else out


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
    keep = 1.0 - rate
    r = rng.random(shape)
    return np.divide(np.less(r, keep), keep, out=r)


@dataclass
class GradCheckReport:
    max_abs_err: float
    max_rel_err: float
    worst_index: int
    passed: bool


def finite_diff_check(f: Callable[[Array], tuple[float, Array]],
                      params: Array,
                      eps: float = 1e-5,
                      tol: float = 1e-5,
                      floor: float = 1e-4) -> GradCheckReport:
    """Compare f's analytic gradient with central finite differences.

    `f` maps a flat float64 parameter vector to (value, gradient). Every
    coordinate is perturbed by +/- eps and the centered difference is
    compared against the analytic gradient at the unperturbed point.
    Relative error uses max(|analytic|, |numeric|, floor) as denominator, so
    coordinates whose gradient is below `floor` are judged absolutely.
    """
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
