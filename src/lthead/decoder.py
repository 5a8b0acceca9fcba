"""Lightweight transformer decoder over frozen token features.

Pre-norm blocks (multi-head self-attention, then a GELU MLP with dropout on
its output), mean pooling over tokens, and a linear classifier; every affine
map is `numerics.linear`. Train-mode forward passes cache the activations the
backward pass needs, except the layer-norm outputs, which the backward
recomputes with the forward's own operations (so its gradients stay exact),
and can overwrite the previous forward's cache block by block (`out=`); eval
mode is inference only and keeps no caches, computes no GELU derivative and
builds no dropout mask.
Depth 0 degenerates to a linear probe: mean-pool then affine.

Residual sums and gradient products are formed in place, GELU runs in
cache-sized tiles over the fc1 output (see `lthead.numerics`), and the
backward drops each intermediate gradient once it is consumed. Every value
keeps the operations and order of the plain whole-array expressions, so the
bits are those of the untiled, out-of-place code.

No positional embeddings are added; input tokens come from an encoder that
already resolved position, and the blocks stay permutation-equivariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, make_dataclass

import numpy as np

from .exceptions import ConfigError, ShapeError, StateError
from .numerics import (FAN_IN, Array, LayerNormCache, ParamVector, dropout_mask,
                       gelu, gelu_with_grad, layer_norm, layer_norm_backward,
                       layout_size, linear, linear_backward, softmax_last)


@dataclass(frozen=True)
class DecoderConfig:
    dim: int
    num_classes: int
    depth: int = 3
    heads: int = 4
    mlp_ratio: float = 4.0
    dropout: float = 0.5

    def __post_init__(self):
        if self.dim < 1 or self.num_classes < 1:
            raise ConfigError("dim and num_classes must be positive")
        if self.depth < 0:
            raise ConfigError("depth must be >= 0")
        if self.heads < 1 or self.dim % self.heads != 0:
            raise ConfigError(
                f"dim {self.dim} must be divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if not 1 <= self.mlp_ratio * self.dim < math.inf:
            raise ConfigError(
                f"mlp_ratio {self.mlp_ratio} at dim {self.dim} gives MLP width "
                f"{self.mlp_ratio * self.dim}; it must be at least 1 and finite")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def hidden(self) -> int:
        return int(self.mlp_ratio * self.dim)


def _block_layout(d: int, h: int) -> tuple:
    """(name, shape, initial value) of one block's parameters, storage order.

    `d` is the model width and `h` the MLP hidden width. Weight matrices are
    (out, in), applied as x @ W.T; the qkv rows are ordered q, k, v.
    """
    return (("ln1_gamma", (d,), 1.0), ("ln1_beta", (d,), 0.0),
            ("qkv_weight", (3 * d, d), FAN_IN), ("qkv_bias", (3 * d,), 0.0),
            ("proj_weight", (d, d), FAN_IN), ("proj_bias", (d,), 0.0),
            ("ln2_gamma", (d,), 1.0), ("ln2_beta", (d,), 0.0),
            ("fc1_weight", (h, d), FAN_IN), ("fc1_bias", (h,), 0.0),
            ("fc2_weight", (d, h), FAN_IN), ("fc2_bias", (d,), 0.0))


BLOCK_FIELDS = tuple(name for name, _, _ in _block_layout(0, 0))
BlockParams = make_dataclass("BlockParams", BLOCK_FIELDS, namespace={
    "__doc__": "One pre-norm block's parameters: views into the head's vector."})


def param_layout(config: DecoderConfig) -> list[tuple[str, tuple, object]]:
    """(name, shape, initial value) of every head parameter, in storage order.

    This order is the checkpoint's byte order and the order of fan-in draws
    at initialization.
    """
    d, k = config.dim, config.num_classes
    layout = [(f"blocks.{i}.{name}", shape, init)
              for i in range(config.depth)
              for name, shape, init in _block_layout(d, config.hidden)]
    return layout + [("cls_weight", (k, d), FAN_IN), ("cls_bias", (k,), 0.0)]


def param_count(config: DecoderConfig) -> int:
    """Length of the head's parameter vector, without building its layout."""
    d, k = config.dim, config.num_classes
    return (config.depth * layout_size(_block_layout(d, config.hidden))
            + k * d + k)


class DecoderHead:
    """A head whose parameters are views into one float64 vector.

    `params` maps the dotted names of `param_layout` to views of
    `params.vector`; `blocks`, `cls_weight` and `cls_bias` are the same
    views. Without `vector` every parameter starts at zero.
    """

    def __init__(self, config: DecoderConfig, vector: Array | None = None):
        self.config = config
        self.params = ParamVector(param_layout(config), vector)
        self.blocks = [
            BlockParams(**{n: self.params[f"blocks.{i}.{n}"] for n in BLOCK_FIELDS})
            for i in range(config.depth)]
        self.cls_weight = self.params["cls_weight"]  # (K, D)
        self.cls_bias = self.params["cls_bias"]      # (K,)

    def param_dict(self) -> dict[str, Array]:
        """All parameters in storage order, keyed by stable dotted names."""
        return dict(self.params)


def init_decoder(config: DecoderConfig, rng: np.random.Generator) -> DecoderHead:
    """Fresh head: scaled-uniform fan-in weights, zero biases, identity norms."""
    head = DecoderHead(config)
    head.params.initialize(rng)
    return head


@dataclass
class BlockCache:
    ln1: LayerNormCache  # its output is recomputed by the backward
    q: Array | None      # (B, h, T, dh); None on the single-token fast path
    k: Array | None
    v: Array | None
    attn: Array | None   # (B, h, T, T) softmax weights
    ctx: Array           # (B, T, D) merged attention context
    ln2: LayerNormCache
    h_act: Array         # (B, T, H) gelu output, over the fc1 output
    h_grad: Array        # (B, T, H) gelu derivative at the fc1 output
    mask: Array          # (B, T, D) dropout mask


@dataclass
class ForwardCache:
    config: DecoderConfig
    block_caches: list[BlockCache | None] | None  # None after an eval-mode forward
    pooled: Array | None  # (B, D); None while a forward into this cache runs
    num_tokens: int


def _split_heads(x: Array, heads: int) -> Array:
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: Array) -> Array:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _block_forward_batch(params: BlockParams, x: Array, config: DecoderConfig,
                         rng, train_mode: bool) -> tuple[Array, BlockCache | None]:
    """One block. Eval mode returns no cache and adds the MLP output in place."""
    xhat1, ln1 = layer_norm(x, params.ln1_gamma, params.ln1_beta)
    d = config.dim
    if x.shape[1] == 1:
        # One token: attention weights are exactly 1, so the context is v and
        # q/k never influence the output or any gradient.
        q = k = v = attn = None
        ctx = linear(xhat1, params.qkv_weight[2 * d:], params.qkv_bias[2 * d:])
    else:
        qkv = linear(xhat1, params.qkv_weight, params.qkv_bias)
        q = _split_heads(qkv[..., :d], config.heads)
        k = _split_heads(qkv[..., d:2 * d], config.heads)
        v = _split_heads(qkv[..., 2 * d:], config.heads)
        scale = 1.0 / math.sqrt(config.head_dim)
        attn = softmax_last(q @ k.transpose(0, 1, 3, 2) * scale)
        ctx = _merge_heads(attn @ v)
    del xhat1  # not cached: the backward recomputes it
    x_mid = linear(ctx, params.proj_weight, params.proj_bias)
    x_mid += x

    xhat2, ln2 = layer_norm(x_mid, params.ln2_gamma, params.ln2_beta)
    h_pre = linear(xhat2, params.fc1_weight, params.fc1_bias)
    del xhat2
    if not train_mode:
        x_mid += linear(gelu(h_pre, out=h_pre), params.fc2_weight, params.fc2_bias)
        return x_mid, None
    h_act, h_grad = gelu_with_grad(h_pre, out=h_pre)
    mlp = linear(h_act, params.fc2_weight, params.fc2_bias)
    mask = dropout_mask(mlp.shape, config.dropout, rng)
    mlp *= mask
    mlp += x_mid  # the block output, x_mid + mlp * mask
    cache = BlockCache(ln1=ln1, q=q, k=k, v=v, attn=attn, ctx=ctx, ln2=ln2,
                       h_act=h_act, h_grad=h_grad, mask=mask)
    return mlp, cache


def _block_backward_batch(params: BlockParams, cache: BlockCache, dout: Array,
                          config: DecoderConfig, grads: BlockParams) -> Array:
    """Write every one of the block's parameter gradients into `grads`; return dx.

    Drops each intermediate gradient once consumed and recomputes each
    layer-norm output where it is read; writes neither `dout` nor `cache`."""
    # MLP path: out = x_mid + mask * fc2(gelu(fc1(LN2(x_mid))))
    dh_act = linear_backward(dout * cache.mask, cache.h_act, params.fc2_weight,
                             grads.fc2_weight, grads.fc2_bias)
    dh_act *= cache.h_grad  # now the gradient at the fc1 output
    dxhat2 = linear_backward(dh_act, cache.ln2.output(params.ln2_beta),
                             params.fc1_weight, grads.fc1_weight, grads.fc1_bias)
    del dh_act
    dx_mid, grads.ln2_gamma[...], grads.ln2_beta[...] = layer_norm_backward(
        cache.ln2, dxhat2)
    del dxhat2
    dx_mid += dout

    # Attention path: x_mid = x + proj(merge(attn @ v))
    dctx = linear_backward(dx_mid, cache.ctx, params.proj_weight,
                           grads.proj_weight, grads.proj_bias)
    d = config.dim
    if cache.attn is None:
        # Single token: dscores vanishes identically, so only the v slice of
        # the qkv projection receives gradient.
        grads.qkv_weight[:2 * d] = 0.0
        grads.qkv_bias[:2 * d] = 0.0
        dqkv, weight = dctx, params.qkv_weight[2 * d:]
        dweight, dbias = grads.qkv_weight[2 * d:], grads.qkv_bias[2 * d:]
        del dctx
    else:
        dctx_h = _split_heads(dctx, config.heads)
        dattn = dctx_h @ cache.v.transpose(0, 1, 3, 2)
        # dq, dk and dv are written through head-split views of one buffer
        dqkv = np.empty(dctx.shape[:2] + (3 * d,))
        dq, dk, dv = (_split_heads(dqkv[..., i * d:(i + 1) * d], config.heads)
                      for i in range(3))
        a = cache.attn
        np.matmul(a.transpose(0, 1, 3, 2), dctx_h, out=dv)
        del dctx, dctx_h
        # softmax backward over the key axis
        dscores = a * (dattn - np.sum(dattn * a, axis=-1, keepdims=True))
        del dattn
        scale = 1.0 / math.sqrt(config.head_dim)
        np.matmul(dscores, cache.k, out=dq)
        dq *= scale
        np.matmul(dscores.transpose(0, 1, 3, 2), cache.q, out=dk)
        dk *= scale
        del dscores, dq, dk, dv
        weight, dweight, dbias = params.qkv_weight, grads.qkv_weight, grads.qkv_bias
    dxhat1 = linear_backward(dqkv, cache.ln1.output(params.ln1_beta), weight,
                             dweight, dbias)
    del dqkv
    dx, grads.ln1_gamma[...], grads.ln1_beta[...] = layer_norm_backward(
        cache.ln1, dxhat1)
    del dxhat1
    dx += dx_mid
    return dx


def forward_batch(head: DecoderHead, tokens: Array, rng, train_mode: bool,
                  out: ForwardCache | None = None) -> tuple[Array, ForwardCache]:
    """Run a (B, T, D) token batch through the head.

    Returns (B, K) logits and a cache. Train mode is the differentiable
    mode: its cache holds every activation `backward_batch` consumes, and a
    positive dropout rate draws masks from `rng`. Eval mode is inference:
    the cache holds only the pooled features, and `rng` is never touched.

    `out`, a train-mode cache of a head with the same config, is filled and
    returned instead of a fresh cache; its batch size and token count need
    not match. Each block's old activations are dropped just before that
    block is recomputed, so a training loop holds one cache, not two. A
    forward that fails partway leaves `out` marked incomplete, and
    `backward_batch` rejects it.
    """
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected (B, T, D) tokens, got shape {x.shape}")
    if x.shape[1] < 1:
        raise ShapeError("need at least one token per sample")
    if x.shape[2] != head.config.dim:
        raise ShapeError(
            f"token dim {x.shape[2]} does not match head dim {head.config.dim}")
    if out is None:
        out = ForwardCache(head.config, [None] * len(head.blocks) if train_mode
                           else None, None, 0)
    elif not train_mode or out.block_caches is None:
        raise StateError("out= takes a train-mode cache and needs a "
                         "train-mode forward; eval mode keeps no caches")
    elif out.config != head.config or len(out.block_caches) != len(head.blocks):
        raise StateError("out cache does not match this head")
    out.pooled = None
    caches = out.block_caches if train_mode else [None] * len(head.blocks)
    for i, blk in enumerate(head.blocks):
        caches[i] = None  # free the old activations before recomputing them
        x, caches[i] = _block_forward_batch(blk, x, head.config, rng, train_mode)
    out.num_tokens = x.shape[1]
    out.pooled = x.mean(axis=1)
    return linear(out.pooled, head.cls_weight, head.cls_bias), out


def backward_batch(head: DecoderHead, cache: ForwardCache, dlogits: Array,
                   out: DecoderHead | None = None) -> tuple[ParamVector, Array]:
    """Exact gradients for every parameter plus the input tokens.

    The parameter gradients share the head's layout: one flat vector whose
    dotted names address the same slices as `head.params`. They overwrite
    every entry of `out.params` when a head of the same config is given
    (training loops reuse one), else a fresh vector. `cache` must come from
    a train-mode `forward_batch`.
    """
    if cache.block_caches is None:
        raise StateError("an eval-mode forward keeps no caches; "
                         "backward needs forward_batch(..., train_mode=True)")
    if cache.config != head.config or len(cache.block_caches) != len(head.blocks):
        raise StateError("forward cache does not match this head")
    if cache.pooled is None:
        raise StateError("forward cache is incomplete: the forward that "
                         "was overwriting it did not finish")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.ndim != 2 or dlogits.shape[1] != head.config.num_classes:
        raise ShapeError(f"dlogits must be (B, {head.config.num_classes})")
    if dlogits.shape[0] != cache.pooled.shape[0]:
        raise StateError("dlogits batch size does not match the cached forward")

    grads = DecoderHead(head.config) if out is None else out
    if grads.config != head.config:
        raise ShapeError("gradient buffer does not match this head's config")
    dpooled = linear_backward(dlogits, cache.pooled, head.cls_weight,
                              grads.cls_weight, grads.cls_bias)
    t = cache.num_tokens
    dx = np.repeat(dpooled[:, None, :] / t, t, axis=1)
    for i in range(len(head.blocks) - 1, -1, -1):
        dx = _block_backward_batch(head.blocks[i], cache.block_caches[i], dx,
                                   head.config, grads.blocks[i])
    return grads.params, dx
