"""The benchmark harness runs against the current package.

A traced run goes through every hook ``spectra_bench/tracing.py`` installs:
the PressureProvider methods, the spectrum point functions as
``_solve_curve`` looks them up, ``Discretization.chebyshev``,
``transfer.required_order`` and ``transfer.hurwitz_zeta``.  Removing any of
them breaks the run, and so this test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["khintchine-curve", "lyapunov-curve"])
def test_traced_benchmark_run(workload):
    proc = subprocess.run(
        [sys.executable, "spectra_bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
