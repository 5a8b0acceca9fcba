#!/usr/bin/env python3
"""Feature files and the two batch samplers.

Datasets live in a fixed little-endian binary format so that a file written
on one machine loads bit-identically on another. Batches are drawn i.i.d.
with replacement under one of two strategies: instance-balanced (batch class
frequencies follow the skewed prior) or class-balanced (every class appears
equally often regardless of its size).
"""

import tempfile
from pathlib import Path

import numpy as np

from lthead import (CLASS_BALANCED, INSTANCE_BALANCED, SyntheticSpec,
                    build_class_stats, generate_synthetic_lt, load_features,
                    make_rng, sample_batch, save_features)

spec = SyntheticSpec(num_classes=6, head_count=240, imbalance_ratio=40.0,
                     dim=8, tokens=1, test_per_class=10, seed=21)
train, test = generate_synthetic_lt(spec)
stats = build_class_stats(train.labels, 6)
print("train counts:", stats.counts.tolist())
print("priors:      ", np.round(stats.priors, 3).tolist())
print("groups:      ", [str(g) for g in stats.groups])
print()

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "train.bin"
    save_features(train, path)
    loaded = load_features(path)
    again = Path(tmp) / "train2.bin"
    save_features(loaded, again)
    print(f"wrote {path.stat().st_size} bytes; "
          f"round trip bit-identical: {path.read_bytes() == again.read_bytes()}")
print()

draws = 50_000
idx = sample_batch(train, INSTANCE_BALANCED, draws, make_rng(1))
inst = np.bincount(train.labels[idx], minlength=6) / draws
idx = sample_batch(train, CLASS_BALANCED, draws, make_rng(2))
bal = np.bincount(train.labels[idx], minlength=6) / draws

print(f"class frequencies over {draws} draws:")
print("  prior            ", np.round(stats.priors, 3).tolist())
print("  instance-balanced", np.round(inst, 3).tolist())
print("  class-balanced   ", np.round(bal, 3).tolist())
print()
print("instance-balanced tracks the prior; class-balanced is flat at 1/6")
