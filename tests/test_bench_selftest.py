"""The benchmark harness keeps working against the library.

`benchmarks/selftest.py` runs every workload at smoke size, traced and
untraced. It fails when a module attribute the tracer wraps disappears, when
`param_dict()` stops fingerprinting the trained parameters, or when a
checkpoint round trip or the traced-vs-untraced hashes differ.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "benchmarks/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
