"""The benchmark's workloads: shapes, schedules and why each was chosen.

Every workload runs the path a user takes with `lthead train`, then
`calibrate`, then `eval`: stage one on instance-balanced batches, a
stage-one checkpoint, stage two on the frozen head, a calibrated
checkpoint, and evaluation with the calibrator on a class-balanced test set.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

# Warmup inputs use another seed, so the timed run never sees their data.
WARMUP_SEED_OFFSET = 1_000_003
WARMUP_ITERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: int
    head_count: int       # train samples of the largest class
    ratio: float          # largest / smallest class count
    dim: int
    tokens: int
    noise: float
    test_per_class: int
    loss: str
    stage2: str
    iters: int            # stage-one iterations
    warmup_iters: int
    lr0: float
    stage2_iters: int
    eval_calls: int       # evaluate() calls per pipeline, for a steady median
    depth: int = 3
    heads: int = 4
    batch: int = 256

    @property
    def hidden(self) -> int:
        return int(4.0 * self.dim)  # TrainConfig's default mlp_ratio

    def smoke(self) -> "Workload":
        """A seconds-long version with the same loss, calibrator and T."""
        return replace(self, classes=min(self.classes, 12), head_count=40,
                       ratio=10.0, dim=16, test_per_class=4, iters=6,
                       warmup_iters=1, stage2_iters=8, eval_calls=2, batch=32)

    def gemm_flops_per_iter(self) -> int:
        """GEMM FLOPs (2*m*n*k per product) of one stage-one forward+backward.

        Computed from the shapes, not measured. At T=1 the decoder applies
        only the value slice of the qkv projection and no attention products.
        Backward costs two products per forward product (weight and input
        gradients), and every block's input gradient is computed.
        """
        rows = self.batch * self.tokens
        d, h = self.dim, self.hidden
        if self.tokens == 1:
            linear = 2 * rows * d * (d + d + h + h)
            attention = 0
        else:
            linear = 2 * rows * d * (3 * d + d + h + h)
            attention = 2 * 2 * self.batch * self.tokens ** 2 * d
        classifier = 2 * self.batch * d * self.classes
        forward = self.depth * (linear + attention) + classifier
        return 3 * forward


WORKLOADS = {w.name: w for w in (
    Workload(
        name="c5-t1",
        why=("K=50 head=500 ratio=100 D=64 T=1 depth3 B=256, bsm then marc: "
             "acceptance criterion 5's shape; per-call overhead, the sgd_step "
             "loop and the calibrator loop dominate"),
        classes=50, head_count=500, ratio=100.0, dim=64, tokens=1, noise=2.0,
        test_per_class=20, loss="bsm", stage2="marc", iters=128,
        warmup_iters=8, lr0=0.1, stage2_iters=1024, eval_calls=10),
    Workload(
        name="tok8",
        why=("K=50 head=500 ratio=100 D=64 T=8 depth3 B=256, ce then crt: "
             "attention is live; GELU and layer norm on 2048-row blocks in "
             "train and eval mode lead self time"),
        classes=50, head_count=500, ratio=100.0, dim=64, tokens=8,
        # per-token noise grows with sqrt(T), so mean pooling over the
        # tokens leaves the task as hard as c5-t1's
        noise=2.0 * math.sqrt(8), test_per_class=20, loss="ce", stage2="crt",
        iters=16, warmup_iters=1, lr0=0.1, stage2_iters=256, eval_calls=2),
)}


@dataclass(frozen=True)
class InputFiles:
    train: Path
    test: Path
    warmup_train: Path
    warmup_test: Path
    ckpt1: Path
    ckpt2: Path

    @staticmethod
    def under(workdir: Path) -> "InputFiles":
        return InputFiles(train=workdir / "data.train", test=workdir / "data.test",
                          warmup_train=workdir / "warmup.train",
                          warmup_test=workdir / "warmup.test",
                          ckpt1=workdir / "stage1.ckpt",
                          ckpt2=workdir / "stage2.ckpt")


def write_inputs(wl: Workload, seed: int, workdir: Path) -> None:
    """Generate the seed's train/test split and the warmup split as IMBF files."""
    from lthead.data import SyntheticSpec, generate_synthetic_lt, save_features

    files = InputFiles.under(workdir)
    spec = SyntheticSpec(num_classes=wl.classes, head_count=wl.head_count,
                         imbalance_ratio=wl.ratio, dim=wl.dim, tokens=wl.tokens,
                         noise=wl.noise, test_per_class=wl.test_per_class,
                         seed=seed)
    train, test = generate_synthetic_lt(spec)
    save_features(train, files.train)
    save_features(test, files.test)
    del train, test
    # The warmup needs the shapes (B, T, D, K), not the sample count.
    warm = replace(spec, head_count=4, imbalance_ratio=1.0, test_per_class=2,
                   seed=seed + WARMUP_SEED_OFFSET)
    train, test = generate_synthetic_lt(warm)
    save_features(train, files.warmup_train)
    save_features(test, files.warmup_test)


if __name__ == "__main__":
    # workloads.py NAME SEED WORKDIR [--smoke]: write one run's input files.
    workload = WORKLOADS[sys.argv[1]]
    write_inputs(workload.smoke() if "--smoke" in sys.argv[4:] else workload,
                 int(sys.argv[2]), Path(sys.argv[3]))
