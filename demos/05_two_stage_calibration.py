#!/usr/bin/env python3
"""Stage-two calibration: fix the classifier, keep the representation.

A head trained with plain cross-entropy on a long-tailed set learns useful
features but a biased classifier. Stage two freezes the whole head and
trains only a small adjuster on top of the frozen logits:

  crt       a fresh classifier retrained with class-balanced batches
  lws       one scale per class (class-balanced batches)
  disalign  confidence-gated affine adjustment, inverse-frequency weights
  marc      per-class scale plus shift in classifier-row-norm units,
            trained under the balanced softmax

Each adjuster starts at (or near) an identity, so training can only move
away from the stage-one behaviour where the data says it should.
"""

from lthead import (CALIBRATOR_VARIANTS, DecoderConfig, SyntheticSpec,
                    TrainConfig, build_class_stats, evaluate,
                    generate_synthetic_lt, make_rng, train_stage1, train_stage2)

spec = SyntheticSpec(num_classes=12, head_count=300, imbalance_ratio=60.0,
                     dim=24, tokens=1, separation=1.0, noise=2.0,
                     test_per_class=30, seed=3)
train, test = generate_synthetic_lt(spec)
stats = build_class_stats(train.labels, spec.num_classes)

config = DecoderConfig(dim=24, num_classes=12, depth=2, heads=4, dropout=0.3)
cfg = TrainConfig(seed=9, total_iters=1200, batch_size=128, warmup_iters=100,
                  loss="ce", stage2_iters=600)

head, _ = train_stage1(train, cfg, config, make_rng(cfg.seed))
base = evaluate(head, None, test, stats)
print(f"stage-1 ce   overall {base.overall:.3f}  many {base.many:.3f}  "
      f"medium {base.medium:.3f}  few {base.few:.3f}")

for variant in CALIBRATOR_VARIANTS:
    cal, _ = train_stage2(head, train, cfg, variant, make_rng(17))
    rep = evaluate(head, cal, test, stats)
    print(f"  + {variant:8s} overall {rep.overall:.3f}  many {rep.many:.3f}  "
          f"medium {rep.medium:.3f}  few {rep.few:.3f}   "
          f"(few-shot {'+' if rep.few >= base.few else ''}"
          f"{(rep.few - base.few) * 100:.1f} pts)")
