#!/usr/bin/env python3
"""End-to-end and per-module benchmark for lthead.

One process is one closed-loop client. It repeats the pipeline a user runs
with `lthead train`, `calibrate` and `eval`:

    load feature files -> stage one -> save checkpoint -> load checkpoint
    -> stage two -> save calibrated checkpoint -> evaluate (repeated)

for `--seconds` seconds on inputs generated from `--seed`, checks the
outputs, and prints as its last line one JSON object
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the same pipeline runs
with spans around every module's public functions and the metrics are the
per-module ones. The line before it holds machine facts, computed counts and
the individual checks.

    python3 benchmarks/bench.py --workload c5-t1 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/bench.py --workload all --seed 1 --out BENCH_x.json

Run it from the repository root; it imports lthead from `src/` and writes
only under `.bench_work/` (deleted on exit) and `.bench_out/` (span files).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import END, NAME, PARENT, START, Tracer
from workloads import WARMUP_ITERS, WORKLOADS, InputFiles, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPAN_DIR = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5       # setups per run at least, so setup_s is a median
SETUP_MIN_S = 1.0       # ... and at least this long in total
SAVE_CALLS = 3          # saves per checkpoint per pipeline; ckpt_save_s uses the median
EVAL_ROWS = 512         # decoder.fwd_eval_ms and numerics.eval_ms are per 512 samples
CHILD_TIMEOUT_S = 120

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "stage1_samples_per_s": ("samples/s", "higher"),
    "stage2_s": ("s", "lower"),
    "eval_samples_per_s": ("samples/s", "higher"),
    "ckpt_save_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "overall_acc": ("fraction", "higher"),
    "few_acc": ("fraction", "higher"),
}

# Wrapped names: (module, attribute, span name). Callers resolve these
# attributes at call time, so wrapping them sees every call.
TRACE_TARGETS = (
    ("lthead.data", "load_features", "data.load_features"),
    ("lthead.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("lthead.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("lthead.training", "train_stage1", "training.stage1"),
    ("lthead.training", "train_stage2", "training.stage2"),
    ("lthead.training", "evaluate", "training.evaluate"),
    ("lthead.training", "sample_batch", "data.sample_batch"),
    ("lthead.training", "forward_batch", "decoder.forward"),
    ("lthead.training", "backward_batch", "decoder.backward"),
    ("lthead.training", "total_loss", "losses.total_loss"),
    ("lthead.training", "sgd_step", "training.sgd_step"),
    ("lthead.training", "metrics_from_predictions", "training.metrics"),
    ("lthead.calibrators", "apply_batch", "calibrators.apply"),
    ("lthead.calibrators", "backward_batch", "calibrators.backward"),
    ("lthead.decoder", "gelu_with_grad", "numerics.gelu"),
    ("lthead.decoder", "layer_norm", "numerics.layer_norm"),
    ("lthead.decoder", "layer_norm_backward", "numerics.layer_norm_bwd"),
    ("lthead.decoder", "softmax_last", "numerics.softmax"),
    ("lthead.losses", "logsumexp_rows", "numerics.softmax"),
    ("lthead.decoder", "dropout_mask", "numerics.dropout"),
)
NUMERICS = ("gelu", "layer_norm", "layer_norm_bwd", "softmax", "dropout")


class CheckFailed(Exception):
    """An output differed from what the same inputs produced before."""


def pin_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must precede numpy's import."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_lthead():
    """Import lthead from this checkout's src/, never from site-packages."""
    if not (SRC / "lthead" / "__init__.py").is_file():
        raise SystemExit(f"error: no lthead sources at {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lthead
    if SRC.resolve() not in Path(lthead.__file__).resolve().parents:
        raise SystemExit(f"error: lthead imported from {lthead.__file__}, "
                         f"not from {SRC}")
    return lthead


def median(values):
    return statistics.median(values) if values else None


def param_arrays(obj):
    """A head's or a calibrator's parameters in declaration order."""
    return list(obj.param_dict().values())


def same_bits(a_arrays, b_arrays) -> bool:
    import numpy as np
    return len(a_arrays) == len(b_arrays) and all(
        a.shape == b.shape and np.array_equal(
            np.ascontiguousarray(a).view(np.uint64),
            np.ascontiguousarray(b).view(np.uint64))
        for a, b in zip(a_arrays, b_arrays))


def fingerprint(arrays) -> str:
    import numpy as np
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


class Bench:
    """One workload's pipeline, its measurements and its checks."""

    def __init__(self, wl: Workload, seed: int, files: InputFiles):
        import numpy as np
        import lthead.checkpoint
        import lthead.data
        import lthead.decoder
        import lthead.losses
        import lthead.numerics
        import lthead.training
        self.np = np
        self.data = lthead.data
        self.ckpt = lthead.checkpoint
        self.losses = lthead.losses
        self.numerics = lthead.numerics
        self.training = lthead.training
        self.wl, self.seed, self.files = wl, seed, files
        self.cfg = self.train_config(seed, wl.iters, wl.warmup_iters)
        self.decoder_config = lthead.decoder.DecoderConfig(
            dim=wl.dim, num_classes=wl.classes, depth=wl.depth, heads=wl.heads)
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.samples: dict[str, list[float]] = {k: [] for k in (
            "setup_s", "stage1_s", "stage2_s", "eval_call_s", "ckpt_save_s",
            "untraced_stage1_s")}
        self.reference = None   # first pipeline's outputs; later ones must match
        self.accuracy = None
        self.params = None

    def train_config(self, seed, iters, warmup):
        wl = self.wl
        return self.training.TrainConfig(
            seed=seed, total_iters=iters, warmup_iters=warmup,
            batch_size=wl.batch, lr0=wl.lr0, loss=wl.loss,
            stage2_method=wl.stage2, stage2_iters=wl.stage2_iters,
            depth=wl.depth, heads=wl.heads)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            raise CheckFailed(name)

    def operation(self, fn, *args):
        """Run one closed-loop operation; an exception or mismatch fails it."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None

    def warmup(self) -> None:
        """Untimed stage one, checkpoint save and eval on another seed's data.

        BLAS threads start and the allocator's and page cache's pages are
        first touched here, not inside the timed iterations. Loading costs a
        user pays on every run stay in the timed setup.
        """
        f = self.files
        train = self.data.load_features(f.warmup_train)
        test = self.data.load_features(f.warmup_test)
        cfg = self.train_config(self.seed + 1, WARMUP_ITERS, 1)
        head, _ = self.training.train_stage1(
            train, cfg, self.decoder_config, self.numerics.make_rng(cfg.seed))
        counts = self.np.bincount(train.labels, minlength=self.wl.classes)
        self.ckpt.save_checkpoint(f.ckpt1, head, counts)
        f.ckpt1.unlink()
        stats = self.losses.build_class_stats(train.labels, self.wl.classes)
        self.training.evaluate(head, None, test, stats)

    def stage_one(self, train):
        t0 = time.perf_counter()
        head, log = self.training.train_stage1(
            train, self.cfg, self.decoder_config,
            self.numerics.make_rng(self.cfg.seed))
        elapsed = time.perf_counter() - t0
        self.check("losses_finite", self.np.all(self.np.isfinite(log)))
        return head, log, elapsed

    def untraced_stage_one(self) -> None:
        """Stage one with tracing off; it must train the traced head."""
        train = self.data.load_features(self.files.train)
        head, log, elapsed = self.stage_one(train)
        self.check("traced_equals_untraced",
                   fingerprint(param_arrays(head) + [log]) == self.reference[0])
        self.samples["untraced_stage1_s"].append(elapsed)

    def pipeline(self) -> None:
        np, f, wl = self.np, self.files, self.wl
        t = time.perf_counter
        t0 = t()
        train = self.data.load_features(f.train)
        test = self.data.load_features(f.test)
        setup_s = t() - t0

        head, log1, stage1_s = self.stage_one(train)
        trained = param_arrays(head)
        stage1_print = fingerprint(trained + [log1])
        self.params = sum(a.size for a in trained)
        counts = np.bincount(train.labels, minlength=wl.classes)
        save_s = self.timed_save(f.ckpt1, head, counts)
        del head

        t0 = t()
        head, stats, _ = self.ckpt.load_checkpoint(f.ckpt1)
        setup_s += t() - t0
        self.check("checkpoint_roundtrip", same_bits(trained, param_arrays(head))
                   and np.array_equal(stats.counts, counts))
        del trained

        t0 = t()
        cal, log2 = self.training.train_stage2(
            head, train, self.cfg, wl.stage2,
            self.numerics.make_rng(self.cfg.seed + 1))
        stage2_s = t() - t0
        self.check("losses_finite", np.all(np.isfinite(log2)))
        save_s += self.timed_save(f.ckpt2, head, counts, calibrator=cal)
        back_head, _, back_cal = self.ckpt.load_checkpoint(f.ckpt2)
        self.check("checkpoint_roundtrip",
                   back_cal is not None and back_cal.variant == cal.variant
                   and same_bits(param_arrays(cal), param_arrays(back_cal))
                   and same_bits(param_arrays(head), param_arrays(back_head)))
        del back_head, back_cal

        eval_s, reports = [], []
        for _ in range(wl.eval_calls):
            t0 = t()
            report = self.training.evaluate(head, cal, test, stats)
            eval_s.append(t() - t0)
            reports.append(json.dumps(report.to_dict(), sort_keys=True))

        outputs = (stage1_print, fingerprint(param_arrays(cal) + [log2]),
                   reports[0])
        self.check("eval_repeatable", all(r == reports[0] for r in reports))
        if self.reference is None:
            self.reference = outputs
        self.check("stage1_repeatable", outputs[0] == self.reference[0])
        self.check("stage2_and_eval_repeatable", outputs[1:] == self.reference[1:])

        s = self.samples
        s["setup_s"].append(setup_s)
        s["stage1_s"].append(stage1_s)
        s["stage2_s"].append(stage2_s)
        s["ckpt_save_s"].append(save_s)
        s["eval_call_s"].extend(eval_s)
        self.test_samples = test.num_samples
        self.accuracy = (report.overall, report.few)

    def timed_save(self, path: Path, *args, **kwargs) -> float:
        """Median time of SAVE_CALLS saves of one checkpoint.

        Each save goes to a fresh file: ext4 flushes a file that is truncated
        and rewritten when it is closed, and deleting the previous copy drops
        its dirty pages, so no save waits on another's writeback.
        """
        times = []
        for _ in range(SAVE_CALLS):
            path.unlink(missing_ok=True)
            t0 = time.perf_counter()
            self.ckpt.save_checkpoint(path, *args, **kwargs)
            times.append(time.perf_counter() - t0)
        return median(times)

    def setup(self) -> float:
        """The loads the CLI pays before computing: both feature files and
        the stage-one checkpoint."""
        t0 = time.perf_counter()
        self.data.load_features(self.files.train)
        self.data.load_features(self.files.test)
        self.ckpt.load_checkpoint(self.files.ckpt1)
        elapsed = time.perf_counter() - t0
        self.samples["setup_s"].append(elapsed)
        return elapsed

    def traced_step(self, tracer: Tracer) -> None:
        """The pipeline with spans on, then stage one again with them off."""
        install_tracer(tracer)
        try:
            self.operation(self.pipeline)
        finally:
            tracer.restore()
        if self.reference is not None:
            self.operation(self.untraced_stage_one)

    def run_window(self, start: float, seconds: float, step) -> int:
        """Repeat `step` while another one still fits in the window."""
        pipelines = 0
        while True:
            t0 = time.perf_counter()
            step()
            pipelines += 1
            now = time.perf_counter()
            if self.reference is None or now - start + (now - t0) > seconds:
                return pipelines

    def extra_setups(self) -> None:
        if not self.files.ckpt1.exists():
            return
        spent = sum(self.samples["setup_s"])
        while len(self.samples["setup_s"]) < SETUP_SAMPLES or spent < SETUP_MIN_S:
            elapsed = self.operation(self.setup)
            if elapsed is None:
                return
            spent += elapsed

    def end_to_end(self) -> dict:
        import resource
        s, wl = self.samples, self.wl
        if not s["stage1_s"]:
            return {}
        values = {
            "setup_s": median(s["setup_s"]),
            "stage1_samples_per_s": median(
                [wl.iters * wl.batch / x for x in s["stage1_s"]]),
            "stage2_s": median(s["stage2_s"]),
            "eval_samples_per_s": median(
                [self.test_samples / x for x in s["eval_call_s"]]),
            "ckpt_save_s": median(s["ckpt_save_s"]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "overall_acc": self.accuracy[0],
            "few_acc": self.accuracy[1],
        }
        return {k: {"value": v, "unit": END_TO_END[k][0]}
                for k, v in values.items()}


def install_tracer(tracer: Tracer) -> None:
    for module, attr, name in TRACE_TARGETS:
        kwargs = {}
        if name == "decoder.forward":
            name = forward_span_name
            kwargs["rows"] = forward_rows
        elif name == "data.sample_batch":
            kwargs["marks_iteration"] = True
        elif name in ("training.stage1", "training.stage2"):
            kwargs["loop"] = True
        tracer.wrap(module, attr, name, **kwargs)


def forward_span_name(args, kwargs) -> str:
    train_mode = kwargs.get("train_mode", args[3] if len(args) > 3 else False)
    return "decoder.forward_train" if train_mode else "decoder.forward_eval"


def forward_rows(args, kwargs) -> int:
    tokens = kwargs.get("tokens", args[1] if len(args) > 1 else ())
    return len(tokens)


def absent_spans(tracer: Tracer) -> set[str]:
    """Span names whose wrapped function no longer exists."""
    return {name for module, attr, name in TRACE_TARGETS
            if f"{module}.{attr}" in tracer.absent}


def per_layer(tracer: Tracer, bench: Bench,
              pipelines: int) -> tuple[dict, list[str]]:
    """Per-module metrics from the spans of `pipelines` traced pipelines.

    A metric whose spans come from a name that disappeared, or that saw no
    call at all, is reported absent rather than as zero.
    """
    wl = bench.wl
    spans = tracer.spans
    selft = tracer.self_times()
    roots = tracer.roots()
    root_of = [spans[r][NAME] for r in roots]
    parent_of = [spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
                 for s in spans]
    n1 = pipelines * wl.iters
    n2 = pipelines * wl.stage2_iters
    gone = absent_spans(tracer)
    if "decoder.forward" in gone:
        gone |= {"decoder.forward_train", "decoder.forward_eval"}

    def pick(name, root=None, parent=None):
        return [i for i, s in enumerate(spans) if s[NAME] == name
                and (root is None or root_of[i] == root)
                and (parent is None or parent_of[i] == parent)]

    def ms(indices, per, inclusive=False):
        if not indices:
            return None
        ns = sum(spans[i][END] - spans[i][START] if inclusive else selft[i]
                 for i in indices)
        return ns / 1e6 / per

    values: dict[str, tuple[float | None, str, tuple[str, ...]]] = {}

    def put(name, value, unit, needs=()):
        values[name] = (value, unit, needs)

    eval_rows = tracer.rows.get("decoder.forward_eval", 0)
    for short in NUMERICS:
        span = f"numerics.{short}"
        put(f"numerics.{short}_ms", ms(pick(span, "training.stage1"), n1), "ms",
            (span,))
        put(f"numerics.{short}_calls",
            len(pick(span)) / pipelines if pick(span) else None, "count", (span,))
    put("numerics.eval_ms",
        ms([i for n in NUMERICS for i in
            pick(f"numerics.{n}", parent="decoder.forward_eval")],
           max(eval_rows, 1) / EVAL_ROWS),
        "ms", tuple(f"numerics.{n}" for n in NUMERICS) + ("decoder.forward_eval",))

    fwd = pick("decoder.forward_train", "training.stage1")
    bwd = pick("decoder.backward", "training.stage1")
    put("decoder.fwd_train_ms", ms(fwd, n1), "ms", ("decoder.forward_train",))
    put("decoder.bwd_ms", ms(bwd, n1), "ms", ("decoder.backward",))
    put("decoder.fwd_eval_ms",
        ms(pick("decoder.forward_eval"), max(eval_rows, 1) / EVAL_ROWS, True),
        "ms", ("decoder.forward_eval",))
    gflop = wl.gemm_flops_per_iter() / 1e9
    put("decoder.gemm_gflop", gflop, "GFLOP")
    gemm_ms = (ms(fwd, n1) or 0) + (ms(bwd, n1) or 0)
    put("decoder.gflops", gflop / (gemm_ms / 1e3) if fwd and bwd else None,
        "GFLOP/s", ("decoder.forward_train", "decoder.backward"))
    put("decoder.params", bench.params, "count")

    put("losses.total_loss_ms",
        ms(pick("losses.total_loss", "training.stage1"), n1, True), "ms",
        ("losses.total_loss",))
    put("losses.total_loss_s2_ms",
        ms(pick("losses.total_loss", "training.stage2"), n2, True), "ms",
        ("losses.total_loss",))
    put("calibrators.apply_ms", ms(pick("calibrators.apply", "training.stage2"), n2),
        "ms", ("calibrators.apply",))
    put("calibrators.backward_ms",
        ms(pick("calibrators.backward", "training.stage2"), n2), "ms",
        ("calibrators.backward",))

    put("data.sample_batch_ms", ms(pick("data.sample_batch", "training.stage1"), n1),
        "ms", ("data.sample_batch",))
    put("data.sample_batch_s2_ms",
        ms(pick("data.sample_batch", "training.stage2"), n2), "ms",
        ("data.sample_batch",))
    loads = pick("data.load_features")
    put("data.load_features_ms", ms(loads, len(loads) / 2, True), "ms",
        ("data.load_features",))
    put("data.feature_bytes", os.path.getsize(bench.files.train)
        + os.path.getsize(bench.files.test), "bytes")

    put("training.sgd_step_ms", ms(pick("training.sgd_step", "training.stage1"), n1),
        "ms", ("training.sgd_step",))
    put("training.sgd_step_s2_ms",
        ms(pick("training.sgd_step", "training.stage2"), n2), "ms",
        ("training.sgd_step",))
    put("training.stage1_self_ms", ms(pick("training.stage1"), n1), "ms",
        ("training.stage1",))
    evals = pick("training.evaluate")
    put("training.metrics_ms", ms(pick("training.metrics"), max(len(evals), 1), True),
        "ms", ("training.metrics", "training.evaluate"))

    saves, ckpt_loads = pick("checkpoint.save"), pick("checkpoint.load")
    put("checkpoint.save_ms", ms(saves, len(saves), True), "ms", ("checkpoint.save",))
    put("checkpoint.load_ms", ms(ckpt_loads, len(ckpt_loads), True), "ms",
        ("checkpoint.load",))
    put("checkpoint.bytes", os.path.getsize(bench.files.ckpt1), "bytes")
    traced = median(bench.samples["stage1_s"])
    untraced = median(bench.samples["untraced_stage1_s"])
    put("trace.overhead_ratio", traced / untraced if untraced else None,
        "ratio", ("training.stage1",))

    metrics, absent = {}, []
    for name, (value, unit, needs) in values.items():
        if value is None or any(n in gone for n in needs):
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def machine_facts(np) -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_pinned": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "src_lthead_lines": sum(len(p.read_bytes().splitlines())
                                for p in sorted((SRC / "lthead").rglob("*.py"))),
    }
    facts.update(blas_facts(np))
    return facts


def blas_facts(np) -> dict:
    """BLAS name and version from numpy's build record; core type and live
    thread count from the loaded OpenBLAS itself."""
    import ctypes
    facts = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        facts["blas"] = "unknown"
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                core = getattr(lib, f"{prefix}get_corename{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if core is None or threads is None:
                    continue
                core.restype, core.argtypes = ctypes.c_char_p, []
                threads.restype, threads.argtypes = ctypes.c_int, []
                facts["blas_core"] = core().decode()
                facts["blas_threads"] = threads()
                return facts
    facts["blas_core"] = "unknown"
    return facts


def make_inputs(name: str, smoke: bool, seed: int, workdir: Path) -> InputFiles:
    """Write the inputs from a child process, before any timing.

    Generation then never counts toward the measuring process's peak memory.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).with_name("workloads.py")),
           name, str(seed), str(workdir)] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    subprocess.run(cmd, env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return InputFiles.under(workdir)


def run_workload(args) -> int:
    import_lthead()
    import numpy as np
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    info: dict = {"workload": wl.name, "seed": args.seed, "smoke": args.smoke,
                  "trace": args.trace}
    try:
        files = make_inputs(args.workload, args.smoke, args.seed, workdir)
        bench = Bench(wl, args.seed, files)
        bench.operation(bench.warmup)
        start = time.perf_counter()
        if args.trace:
            tracer = Tracer()
            pipelines = bench.run_window(start, args.seconds,
                                         lambda: bench.traced_step(tracer))
            metrics, absent = ({}, []) if bench.reference is None \
                else per_layer(tracer, bench, pipelines)
            info["absent"] = absent
            info["absent_names"] = sorted(tracer.absent)
            SPAN_DIR.mkdir(exist_ok=True)
            span_file = SPAN_DIR / f"spans-{wl.name}-{args.seed}.jsonl"
            tracer.dump(span_file)
            info["span_file"] = str(span_file.relative_to(ROOT))
            info["spans"] = len(tracer.spans)
        else:
            pipelines = bench.run_window(
                start, args.seconds, lambda: bench.operation(bench.pipeline))
            bench.extra_setups()
            metrics = bench.end_to_end()
        info["window_s"] = time.perf_counter() - start
        info["computed"] = {
            "gemm_gflop_per_stage1_iter": wl.gemm_flops_per_iter() / 1e9,
            "params": bench.params,
            "feature_bytes": sum(os.path.getsize(p)
                                 for p in (files.train, files.test)),
            "checkpoint_bytes": os.path.getsize(files.ckpt1)
            if files.ckpt1.exists() else None,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["pipelines"] = pipelines
    info["checks"] = bench.checks
    info["samples"] = {k: {"n": len(v), "min": min(v), "max": max(v)}
                       for k, v in bench.samples.items() if v}
    info["machine"] = machine_facts(np)
    print(json.dumps(info, sort_keys=True))
    result = {"correct": bench.failed == 0 and all(bench.checks.values())
              and bool(metrics),
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = report["workloads"].setdefault(name, {})
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result["metrics"]
            entry[f"{key}_run"] = {k: result[k] for k in
                                   ("correct", "attempted", "failed")}
            entry[f"{key}_info"] = info
            report.setdefault("machine", info["machine"])
            status |= not result["correct"]
            for metric, v in result["metrics"].items():
                print(f"{name:8s} {metric:28s} {v['value']:>16.6g} {v['unit']}")
            if trace and info.get("absent"):
                print(f"{name:8s} absent: {', '.join(info['absent'])}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes, for the schema self-test")
    parser.add_argument("--out", help="with --workload all: write every "
                                      "result and machine fact as JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
