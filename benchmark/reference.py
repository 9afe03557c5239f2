"""Measure the reference figures: every workload over several seeds.

    python3 benchmark/reference.py --seeds 0-9 --seconds 30 [--trace 0|1] [--workload NAME ...]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints per
metric the median of the runs, the quartiles and the quartile spread as a
share of the median (what ``statistics.quantiles(values, n=4)`` gives), plus
the share of failed embeddings of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk-idle", "desk-busy", "wide-busy")


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS, default=WORKLOADS)
    args = parser.parse_args()

    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed the checks\n{done.stderr}")
                return 1
            shares.append(f"{result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: seeds {args.seeds[0]}..{args.seeds[-1]}, failed/attempted {shares}")
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.3f} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
