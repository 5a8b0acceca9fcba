#!/usr/bin/env python3
"""Self-test of the benchmark's output schema. It never checks a timing.

    python3 benchmarks/selftest.py

Checks, in order:
  1. BENCHMARK.json has the documented keys, names, units and bounds, and
     its workloads and metrics are the ones bench.py defines.
  2. Every workload at its smoke size, untraced and traced, exits 0 and
     prints as its last line exactly {correct, attempted, failed, metrics},
     correct, with exactly the metric names and units BENCHMARK.json lists.
  3. A wrapped name that does not exist is reported absent, not raised, and
     the metrics built on it are left out.
  4. In a directory holding only BENCHMARK.json and the benchmark, bench.py
     exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import bench
from tracer import Tracer
from workloads import WORKLOADS

ROOT = bench.ROOT
HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def fail(msg: str) -> None:
    raise SystemExit(f"FAIL: {msg}")


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if not 1 <= spec["run_seconds"] <= 60 or not isinstance(spec["run_seconds"], int):
        fail("run_seconds must be a whole number in [1, 60]")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.py")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or w["why"] != WORKLOADS[w["name"]].why \
                or len(w["why"]) > 200:
            fail(f"workload entry {w}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)) or not all(NAME.match(n) for n in names):
        fail("metric names must be unique and well-formed")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end_to_end entry {m}")
        if (m["unit"], m["better"]) != bench.END_TO_END.get(m["name"]):
            fail(f"{m['name']} unit or direction differs from bench.py")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must be listed with the largest bound")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"unit or direction of {m['name']}")
    if set(bench.END_TO_END) != {m["name"] for m in spec["end_to_end"]}:
        fail("end_to_end metrics differ from bench.py")
    return spec


def run_bench(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/bench.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def check_runs(spec: dict) -> None:
    for name in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(["--workload", name, "--seed", "5", "--seconds", "1",
                              "--trace", str(trace), "--smoke"])
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{label} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label} result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 \
                    or not isinstance(result["attempted"], int) \
                    or result["attempted"] < 1:
                fail(f"{label} reported {result}:\n{proc.stderr}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{label} metrics differ from BENCHMARK.json: missing "
                     f"{sorted(set(want) - set(got))}, extra "
                     f"{sorted(set(got) - set(want))}")
            for k, v in result["metrics"].items():
                if set(v) != {"value", "unit"} or not isinstance(
                        v["value"], (int, float)) or v["value"] != v["value"]:
                    fail(f"{label} metric {k} = {v}")
            print(f"ok   {label}: {len(got)} metrics")


def check_absent() -> None:
    bench.import_lthead()
    wl = WORKLOADS["c5-t1"].smoke()
    workdir = bench.WORK / f"selftest-{os.getpid()}"
    try:
        files = bench.make_inputs("c5-t1", True, 5, workdir)
        b = bench.Bench(wl, 5, files)
        tracer = Tracer()
        tracer.wrap("lthead.training", "no_such_function", "training.nothing")
        if tracer.absent != {"lthead.training.no_such_function"}:
            fail(f"missing name not reported absent: {tracer.absent}")
        b.traced_step(tracer)
        _, absent = bench.per_layer(tracer, b, 1)
        if absent or b.failed:
            fail(f"complete trace has absent metrics {absent}")
        tracer.absent.add("lthead.training.sgd_step")
        _, absent = bench.per_layer(tracer, b, 1)
        if set(absent) != {"training.sgd_step_ms", "training.sgd_step_s2_ms"}:
            fail(f"a vanished sgd_step left absent={absent}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok   vanished names are reported absent")


def check_bare_directory() -> None:
    bare = bench.WORK / f"selftest-bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "c5-t1", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("bench.py ran without the library's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   no result without the library's sources")


def main() -> int:
    bench.pin_blas_threads()
    spec = check_spec()
    print("ok   BENCHMARK.json")
    check_runs(spec)
    check_absent()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
