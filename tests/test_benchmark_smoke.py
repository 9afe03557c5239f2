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
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "desk-busy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["correct"] is True
    assert metrics["failed"] == 0
    assert metrics["attempted"] > 0
