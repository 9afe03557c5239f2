"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every test prints ``[acceptance] criterion N: PASS/FAIL - detail`` before
asserting, so a red criterion still reports its measurements.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from edge_embed import (
    SplitProblem,
    WorkloadSpec,
    bisection_oracle,
    brute_force_embed,
    build_catalog,
    dpe_embed,
    generate_dag_records,
    generate_network,
    heft_schedule,
    optimal_split,
    passive_routes,
    placement_only_embed,
    simulate_embedding,
)
from edge_embed.cli import main as cli_main

from conftest import (
    complete_network,
    nested_networks,
    random_general_dag,
    random_out_tree,
    scale_network,
    small_random_network,
    worked_example,
)

REL = 1e-9
REPORT_DIR = Path(__file__).resolve().parents[1] / "reports"


def _verdict(n: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n}: {status} - {detail}")
    return ok


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# shared desk suite (computed once, reused by criteria 4-6)
# ---------------------------------------------------------------------------


@dataclass
class DeskSuite:
    spec: WorkloadSpec
    network: object
    augs: list
    catalog: object
    routes: object
    spans: dict  # algo -> list of makespans, one per DAG
    build_seconds: float


@pytest.fixture(scope="module")
def desk() -> DeskSuite:
    t0 = time.perf_counter()
    spec = WorkloadSpec()  # the shipped defaults: 6 servers, 200 DAGs
    network = generate_network(spec)
    augs = [r.augmented() for r in generate_dag_records(spec)]
    catalog = build_catalog(network)
    routes = passive_routes(catalog)
    spans = {
        "dpe": [dpe_embed(a, network, catalog).makespan for a in augs],
        "heft": [heft_schedule(a, network, routes).makespan for a in augs],
        "placement-only": [
            placement_only_embed(a, network, catalog, routes).makespan
            for a in augs
        ],
    }
    return DeskSuite(
        spec=spec,
        network=network,
        augs=augs,
        catalog=catalog,
        routes=routes,
        spans=spans,
        build_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# criterion 1: closed-form stream splitting matches the search oracle
# ---------------------------------------------------------------------------


def test_criterion_1_split_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    bad = 0
    for _ in range(1000):
        k = int(rng.integers(1, 51))
        coeffs = tuple(10.0 ** rng.uniform(-9.0, 1.0, size=k))
        size = float(10.0 ** rng.uniform(0.0, 8.0))
        problem = SplitProblem(coefficients=coeffs, stream_size=size)
        sol = optimal_split(problem)
        searched = bisection_oracle(problem)
        ok = (
            _close(sol.bottleneck_time, searched)
            and all(z > 0 for z in sol.allocations)
            and _close(sum(sol.allocations), size)
            and all(
                abs(a * z - sol.bottleneck_time) <= REL * sol.bottleneck_time
                for a, z in zip(coeffs, sol.allocations)
            )
        )
        bad += 0 if ok else 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 5.0
    assert _verdict(
        1,
        ok,
        f"1000 random split problems, {bad} disagreements vs bisection "
        f"oracle at 1e-9 rel; conservation/positivity/equalization checked; "
        f"{elapsed:.2f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: exhaustive path enumeration counts and bounded effort
# ---------------------------------------------------------------------------


def test_criterion_2_path_enumeration():
    t0 = time.perf_counter()
    expected = {2: 1, 3: 2, 4: 5, 5: 16, 6: 65, 7: 326}
    problems = []
    for n, want in expected.items():
        # cross-derive the frozen constant before using it
        derived = sum(math.perm(n - 2, r) for r in range(n - 1))
        if derived != want:
            problems.append(f"K_{n} constant {want} != derived {derived}")
            continue
        catalog = build_catalog(complete_network(n))
        budget = 6 * math.factorial(n - 2)
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                got = len(catalog.pair_split(u, v)[0])
                if got != want:
                    problems.append(f"K_{n} pair ({u},{v}): {got} != {want}")
                calls = catalog.recursion_calls[(u, v)]
                if calls > budget:
                    problems.append(
                        f"K_{n} pair ({u},{v}): {calls} calls > budget {budget}"
                    )
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10.0
    assert _verdict(
        2,
        ok,
        f"K_2..K_7 per-pair counts (1,2,5,16,65,326) exact, recursion calls "
        f"within 6*(N-2)!; {elapsed:.2f}s (budget 10s)"
        + (f"; problems: {problems[:3]}" if problems else ""),
    )


# ---------------------------------------------------------------------------
# criterion 3: dynamic program vs exhaustive optimum
# ---------------------------------------------------------------------------


def _random_ready(rng: np.random.Generator, n_servers: int):
    """Half the instances run on an idle cluster, half on a busy one."""
    if rng.random() < 0.5:
        return None
    return {s: float(rng.uniform(0.0, 5.0)) for s in range(n_servers)}


def test_criterion_3_dp_vs_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)

    mismatches = 0
    for _ in range(100):
        net = small_random_network(rng)
        aug = random_out_tree(rng)
        catalog = build_catalog(net)
        ready = _random_ready(rng, net.n_servers)
        dp = dpe_embed(aug, net, catalog, ready).makespan
        best = brute_force_embed(aug, net, catalog, ready).makespan
        if not _close(dp, best):
            mismatches += 1

    undercuts = 0
    gaps = []
    for _ in range(100):
        net = small_random_network(rng)
        aug = random_general_dag(rng)
        catalog = build_catalog(net)
        ready = _random_ready(rng, net.n_servers)
        dp = dpe_embed(aug, net, catalog, ready).makespan
        best = brute_force_embed(aug, net, catalog, ready).makespan
        if dp < best - 1e-9:
            undercuts += 1
        gaps.append((dp - best) / best)

    gaps_sorted = sorted(gaps)
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    gap_report = {
        "instances": len(gaps),
        "relative_gap": {
            "max": gaps_sorted[-1],
            "mean": sum(gaps) / len(gaps),
            "p50": gaps_sorted[len(gaps) // 2],
            "p90": gaps_sorted[int(len(gaps) * 0.9)],
        },
        "exact_within_rel_1e-9": sum(1 for g in gaps if g <= REL),
        "note": "gap = (dp - exhaustive) / exhaustive per general instance",
    }
    out = REPORT_DIR / "acceptance_dp_gap.json"
    out.write_text(json.dumps(gap_report, sort_keys=True, indent=2) + "\n")

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and undercuts == 0 and elapsed < 60.0
    assert _verdict(
        3,
        ok,
        f"100/100 out-degree<=1 instances match the exhaustive optimum "
        f"({mismatches} mismatches); 100/100 general instances never "
        f"undercut it ({undercuts} undercuts, max rel gap "
        f"{gap_report['relative_gap']['max']:.2e}, distribution in "
        f"{out}); {elapsed:.2f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# criterion 4: full dominance over both baselines on the desk suite
# ---------------------------------------------------------------------------


def test_criterion_4_desk_suite_dominance(desk: DeskSuite):
    t0 = time.perf_counter()
    dpe = desk.spans["dpe"]
    losses = {}
    for rival in ("heft", "placement-only"):
        other = desk.spans[rival]
        losses[rival] = sum(
            1 for d, o in zip(dpe, other) if d > o * (1 + REL)
        )
    # CDF dominance at every threshold == sorted-value pointwise dominance
    cdf_ok = True
    for rival in ("heft", "placement-only"):
        for d, o in zip(sorted(dpe), sorted(desk.spans[rival])):
            if d > o * (1 + REL):
                cdf_ok = False
    elapsed = desk.build_seconds + (time.perf_counter() - t0)
    ok = losses["heft"] == 0 and losses["placement-only"] == 0 and cdf_ok
    ok = ok and elapsed < 120.0
    mean = lambda xs: sum(xs) / len(xs)
    assert _verdict(
        4,
        ok,
        f"200-DAG suite: dpe worse than heft on {losses['heft']} DAGs, "
        f"worse than placement-only on {losses['placement-only']} DAGs; "
        f"CDF dominance {'holds' if cdf_ok else 'violated'}; mean makespans "
        f"dpe={mean(dpe):.4f}s heft={mean(desk.spans['heft']):.4f}s "
        f"placement-only={mean(desk.spans['placement-only']):.4f}s; "
        f"{elapsed:.2f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# criterion 5: more servers never hurt, and help on average
# ---------------------------------------------------------------------------


def test_criterion_5_server_count_trend(desk: DeskSuite):
    t0 = time.perf_counter()
    nets = nested_networks(desk.spec, [4, 6, 8])
    spans = []
    for net in nets:
        catalog = build_catalog(net)
        spans.append([dpe_embed(a, net, catalog).makespan for a in desk.augs])
    increases = 0
    for smaller, larger in zip(spans, spans[1:]):
        increases += sum(
            1 for s, l in zip(smaller, larger) if l > s * (1 + REL)
        )
    means = [sum(s) / len(s) for s in spans]
    strict = means[2] < means[0]
    elapsed = time.perf_counter() - t0
    ok = increases == 0 and strict
    strict_msg = (
        "holds"
        if strict
        else "FAILS (growing the fleet left the fastest server unchanged, "
        "and every embedding already colocates on it)"
    )
    assert _verdict(
        5,
        ok,
        f"nested 4/6/8-server networks: {increases} per-DAG increases; mean "
        f"makespans {means[0]:.6f} -> {means[1]:.6f} -> {means[2]:.6f} s, "
        f"strict 4->8 decrease {strict_msg}; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: doubling compute or bandwidth never hurts any algorithm
# ---------------------------------------------------------------------------


def test_criterion_6_resource_scaling(desk: DeskSuite):
    t0 = time.perf_counter()
    runners = {
        "dpe": lambda a, n, c, r: dpe_embed(a, n, c),
        "heft": lambda a, n, c, r: heft_schedule(a, n, r),
        "placement-only": lambda a, n, c, r: placement_only_embed(a, n, c, r),
    }
    violations = {}
    for label, factors in (
        ("psi x2", dict(psi_factor=2.0)),
        ("b x2", dict(throughput_factor=2.0)),
    ):
        net = scale_network(desk.network, **factors)
        catalog = build_catalog(net)
        routes = passive_routes(catalog)
        for algo, run in runners.items():
            scaled = [run(a, net, catalog, routes).makespan for a in desk.augs]
            violations[f"{label}/{algo}"] = sum(
                1
                for before, after in zip(desk.spans[algo], scaled)
                if after > before * (1 + REL)
            )
    elapsed = time.perf_counter() - t0
    total = sum(violations.values())
    nonzero = {k: v for k, v in violations.items() if v}
    ok = total == 0
    assert _verdict(
        6,
        ok,
        f"doubled compute then doubled bandwidth across all 3 algorithms x "
        f"200 DAGs: {total} per-DAG regressions"
        + (
            f" ({nonzero}; the list scheduler re-ranks under cheaper comm "
            f"and its greedy choices can backfire)"
            if nonzero
            else ""
        )
        + f"; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: the hand-built chain embedding finishes at exactly 7.5 s
# ---------------------------------------------------------------------------


def test_criterion_7_worked_example_regression():
    aug, net, placements, mappings, expected = worked_example()
    finish, makespan = simulate_embedding(aug, net, placements, mappings)
    ok = makespan == expected  # bit-for-bit float equality
    assert _verdict(
        7,
        ok,
        f"replayed chain embedding: 1 + max(3, 2.5) + 1 + 1.5 + 1 -> "
        f"{makespan!r} s == {expected!r} s exactly: {ok}",
    )


# ---------------------------------------------------------------------------
# criterion 8: identical benchmark invocations produce identical bytes
# ---------------------------------------------------------------------------


def test_criterion_8_benchmark_determinism(tmp_path):
    t0 = time.perf_counter()
    args = ["bench", "--seed", "0", "--servers", "6", "--connectivity", "0.5",
            "--n-dags", "200"]
    first = tmp_path / "first"
    second = tmp_path / "second"
    code1 = cli_main(args + ["--out", str(first)])
    code2 = cli_main(args + ["--out", str(second)])
    same = {
        name: (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("trials.csv", "summary.json")
    }
    elapsed = time.perf_counter() - t0
    ok = code1 == 0 and code2 == 0 and all(same.values())
    assert _verdict(
        8,
        ok,
        f"two identical bench runs: trials.csv byte-identical={same['trials.csv']}, "
        f"summary.json byte-identical={same['summary.json']}; {elapsed:.2f}s",
    )
