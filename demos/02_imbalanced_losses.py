#!/usr/bin/env python3
"""A tour of the imbalanced loss family on a skewed toy class distribution.

All variants share one functional form: per-class loss weights, additive
per-class logit biases, and margins subtracted from the true-class logit,
plus an optional focal modulation. Each variant fills in only its own piece,
and with balanced counts (or neutral hyperparameters) they all collapse back
onto plain cross-entropy.
"""

import numpy as np

from lthead import (bsm_biases, cbw_weights, ldam_margins, make_loss_spec,
                    make_rng, stats_from_counts, total_loss)

counts = np.array([400, 150, 60, 12, 3])
stats = stats_from_counts(counts)

print("class counts:", counts.tolist())
print("group tags:  ", [str(g) for g in stats.groups])
print()
print("derived per-class vectors")
print("  cbw weights :", np.round(cbw_weights(stats), 3).tolist())
print("  bsm biases  :", np.round(bsm_biases(stats), 3).tolist())
print("  ldam margins:", np.round(ldam_margins(stats, 0.5), 3).tolist())
print()

rng = make_rng(0)
logits = rng.standard_normal((4, 5))
labels = np.array([0, 2, 4, 4])  # two samples from the rarest class

print("loss on one random batch (two samples from the rarest class):")
for variant in ("ce", "cbw", "focal", "ldam", "bsm", "lade"):
    spec = make_loss_spec(variant, stats)
    value, dlogits = total_loss(spec, logits, labels, stats)
    tail_grad = np.abs(dlogits[2:, 4]).mean()
    print(f"  {variant:5s} value={value:7.4f}   mean |grad| on true tail "
          f"logit = {tail_grad:.4f}")

print()
print("reductions back to cross-entropy:")
spec_ce = make_loss_spec("ce", stats)
v_ce, _ = total_loss(spec_ce, logits, labels, stats)
v_f0, _ = total_loss(make_loss_spec("focal", stats, gamma=0.0), logits, labels, stats)
v_l0, _ = total_loss(make_loss_spec("ldam", stats, max_margin=0.0), logits, labels, stats)
print(f"  focal(gamma=0) - ce = {abs(v_f0 - v_ce):.2e}")
print(f"  ldam(margin=0) - ce = {abs(v_l0 - v_ce):.2e}")

eq_stats = stats_from_counts(np.full(5, 100))
v_ce_eq, _ = total_loss(make_loss_spec("ce", eq_stats), logits, labels, eq_stats)
v_bsm_eq, _ = total_loss(make_loss_spec("bsm", eq_stats), logits, labels, eq_stats)
v_cbw_eq, _ = total_loss(make_loss_spec("cbw", eq_stats), logits, labels, eq_stats)
print(f"  bsm(equal counts) - ce = {abs(v_bsm_eq - v_ce_eq):.2e}")
print(f"  cbw(equal counts) - ce = {abs(v_cbw_eq - v_ce_eq):.2e}")
