"""Finite-difference verification of every analytic backward in the library.

Each check wraps a forward+backward pair as a scalar function of a flat
vector and hands it to the central-difference checker; heads and calibrators
are checked directly on their parameter vectors. Checks are sized to finish
in seconds while still touching every code path, including train-mode
dropout (the generator is re-seeded per evaluation so the mask is a
deterministic function of the parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calibrators as cal_mod
from .calibrators import CALIBRATOR_VARIANTS, Calibrator, init_calibrator
from .decoder import (DecoderConfig, DecoderHead, backward_batch, forward_batch,
                      init_decoder)
from .exceptions import ConfigError
from .losses import (VARIANTS, build_class_stats, lade_dv_regularizer,
                     make_loss_spec, total_loss)
from .numerics import (GradCheckReport, finite_diff_check, gelu,
                       gelu_with_grad, layer_norm, layer_norm_backward,
                       make_rng)

MODULES = ("all", "losses", "decoder", "calibrators")


@dataclass
class CheckResult:
    name: str
    report: GradCheckReport


def _loss_checks(tol: float) -> list[CheckResult]:
    rng = make_rng(11)
    batch, k = 6, 5
    labels = rng.integers(0, k, size=batch)
    stats = build_class_stats(np.concatenate([np.arange(k), labels]), k)
    logits0 = rng.standard_normal((batch, k))
    results = []
    for variant in VARIANTS:
        spec = make_loss_spec(variant, stats, gamma=2.0, max_margin=0.5, lam=0.1)

        def f(vec, spec=spec):
            lg = vec.reshape(batch, k)
            value, dl = total_loss(spec, lg, labels, stats)
            return value, dl.ravel()

        report = finite_diff_check(f, logits0.ravel(), tol=tol)
        results.append(CheckResult(f"losses.{variant}", report))

    def f_reg(vec):
        lg = vec.reshape(batch, k)
        value, dl = lade_dv_regularizer(lg, labels, stats, lam=0.3)
        return value, dl.ravel()

    results.append(CheckResult("losses.lade_regularizer",
                               finite_diff_check(f_reg, logits0.ravel(), tol=tol)))
    return results


def _decoder_checks(tol: float) -> list[CheckResult]:
    rng = make_rng(23)
    results = []

    # layer_norm: parameters and input together
    d = 7
    x0, g0, b0 = rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(d)
    probe = rng.standard_normal(d)

    def f_ln(vec):
        x, g, b = np.split(vec, 3)
        y, cache = layer_norm(x, g, b)
        dx, dg, db = layer_norm_backward(cache, probe)
        return float(np.sum(y * probe)), np.concatenate([dx, dg, db])

    results.append(CheckResult("decoder.layer_norm",
                               finite_diff_check(f_ln, np.concatenate([x0, g0, b0]),
                                                 tol=tol)))

    # gelu derivative on a grid of points
    pts = np.array([-3.0, -1.0, -0.25, 0.0, 0.5, 1.5, 4.0])

    def f_gelu(vec):
        return float(np.sum(gelu(vec))), gelu_with_grad(vec)[1]

    results.append(CheckResult("decoder.gelu",
                               finite_diff_check(f_gelu, pts, tol=tol)))

    def head_check(name, config, check_input=False):
        head0 = init_decoder(config, make_rng(31))
        tokens = make_rng(37).standard_normal((2, 3, config.dim))
        labels = np.array([1, 0])
        stats = build_class_stats(np.arange(config.num_classes), config.num_classes)
        spec = make_loss_spec("ce", stats)

        def run(head, toks):
            # train mode is the differentiable one; a re-seeded generator
            # makes the dropout masks identical per evaluation
            logits, cache = forward_batch(head, toks, make_rng(41), True)
            value, dlogits = total_loss(spec, logits, labels, stats)
            grads, dtokens = backward_batch(head, cache, dlogits)
            return value, grads, dtokens

        if check_input:
            def f(vec):
                value, _, dtokens = run(head0, vec.reshape(tokens.shape))
                return value, dtokens.ravel()
            start = tokens.ravel()
        else:
            def f(vec):
                value, grads, _ = run(DecoderHead(config, vec), tokens)
                return value, grads.vector
            start = head0.params.vector
        return CheckResult(name, finite_diff_check(f, start, tol=tol))

    block_cfg = DecoderConfig(dim=6, num_classes=3, depth=1, heads=2,
                              mlp_ratio=2.0, dropout=0.3)
    results.append(head_check("decoder.block", block_cfg))
    deep_cfg = DecoderConfig(dim=8, num_classes=4, depth=2, heads=4,
                             mlp_ratio=2.0, dropout=0.0)
    results.append(head_check("decoder.head", deep_cfg))
    results.append(head_check("decoder.input", deep_cfg, check_input=True))
    probe_cfg = DecoderConfig(dim=5, num_classes=4, depth=0, heads=1,
                              dropout=0.0)
    results.append(head_check("decoder.linear_probe", probe_cfg))
    return results


def _calibrator_checks(tol: float) -> list[CheckResult]:
    rng = make_rng(53)
    k, d, batch = 5, 6, 4
    pooled0 = rng.standard_normal((batch, d))
    logits0 = rng.standard_normal((batch, k))
    norms = np.abs(rng.standard_normal(k)) + 0.5
    labels = rng.integers(0, k, size=batch)
    stats = build_class_stats(np.concatenate([np.arange(k), labels]), k)
    spec = make_loss_spec("ce", stats)
    results = []
    for variant in CALIBRATOR_VARIANTS:
        cal0 = init_calibrator(variant, k, d, make_rng(59))
        # nudge away from the identity so gradients are generic
        cal0.params.vector += 0.05 * rng.standard_normal(cal0.params.vector.size)

        def f_params(vec, variant=variant):
            cal = Calibrator(variant, k, d, vec)
            adjusted, cache = cal_mod.apply_batch(cal, pooled0, logits0, norms)
            value, dadj = total_loss(spec, adjusted, labels, stats)
            grads, _, _ = cal_mod.backward_batch(cal, cache, dadj)
            return value, grads.vector

        results.append(CheckResult(
            f"calibrators.{variant}.params",
            finite_diff_check(f_params, cal0.params.vector, tol=tol)))

        def f_inputs(vec, cal0=cal0):
            pooled, logits = np.split(vec, [pooled0.size])
            adjusted, cache = cal_mod.apply_batch(
                cal0, pooled.reshape(pooled0.shape), logits.reshape(logits0.shape),
                norms)
            value, dadj = total_loss(spec, adjusted, labels, stats)
            _, dlogits, dpooled = cal_mod.backward_batch(cal0, cache, dadj)
            return value, np.concatenate([dpooled.ravel(), dlogits.ravel()])

        start = np.concatenate([pooled0.ravel(), logits0.ravel()])
        results.append(CheckResult(f"calibrators.{variant}.inputs",
                                   finite_diff_check(f_inputs, start, tol=tol)))
    return results


def run_gradcheck(module: str = "all", tol: float = 1e-5) -> list[CheckResult]:
    """Run the selected check group(s); every report should pass at `tol`."""
    if module not in MODULES:
        raise ConfigError(f"unknown gradcheck module {module!r}")
    results = []
    if module in ("all", "losses"):
        results.extend(_loss_checks(tol))
    if module in ("all", "decoder"):
        results.extend(_decoder_checks(tol))
    if module in ("all", "calibrators"):
        results.extend(_calibrator_checks(tol))
    return results
