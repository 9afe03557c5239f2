"""Smoke run of the benchmark driver under ``benchmark/``.

The driver calls the package only through its public functions, so a
change to the package that breaks it shows here first.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_runs_and_checks_every_embedding():
    # one loop, not parametrized ids, so the test keeps its id; the idle
    # workload adds the checker's optimality check on idle servers, and
    # wide-busy cross-checks routes on the 10-server network
    for workload in ("desk-busy", "desk-idle", "wide-busy"):
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (workload, proc.stderr)
        metrics = json.loads(proc.stdout.splitlines()[-1])
        assert metrics["correct"] is True, workload
        assert metrics["failed"] == 0, workload
        assert metrics["attempted"] > 0, workload
