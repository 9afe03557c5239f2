"""Seeded end-to-end benchmark of the edge-embed pipeline.

    python3 benchmark/run.py --workload desk-idle --seed 0 --seconds 30 --trace 0

One pass runs the whole pipeline once, from seed to replayed embeddings:
generate the network and DAGs, augment every DAG, build the path catalog
and the passive routes, embed every DAG with every algorithm, and replay
each embedding with ``simulate_embedding``. Passes repeat, all on the same
inputs, until ``--seconds`` have passed and at least three passes ran.
After each pass, outside its timing, every embedding goes through the
independent checker in ``checker.py``.

Times are the fastest of their repeats. Passes over the same inputs make
the same calls in the same order; each call's time is its fastest over the
passes, and ``suite_s`` sums them. On a shared machine other tenants slow a
process down in phases of seconds, by up to 1.7x; the fastest repeat is
steady across runs where a median is not. ``setup_s`` is the median of the
per-pass set-ups.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics. With ``--trace 1`` untraced and traced passes alternate; the last
line holds the per-layer metrics and the tracing overhead, and the spans
go to ``benchmark/out/trace-<workload>.json``. Everything runs in this one
process, on one thread. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
MIN_PASSES = 3
MB = float(2**20)

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    from edge_embed import (
        augment_dummy_tail,
        build_catalog,
        dpe_embed,
        generate_dag_records,
        generate_network,
        heft_schedule,
        passive_routes,
        placement_only_embed,
        simulate_embedding,
    )
except ImportError as exc:
    sys.exit(f"error: cannot import edge_embed from {SRC}: {exc}")

from checker import CheckDag, Checker  # noqa: E402
from workloads import (  # noqa: E402
    ALGORITHMS,
    WORKLOADS,
    late_entry_ready,
    late_entry_records,
)

LAYERS = (
    "bench.generate",
    "model.augment",
    "pathfind.catalog",
    "baselines.routes",
    "embedder.dpe",
    "baselines.placement_only",
    "baselines.heft",
    "embedder.replay",
)
EMBED_LAYER = {
    "dpe": "embedder.dpe",
    "placement-only": "baselines.placement_only",
    "heft": "baselines.heft",
}
METRIC_PREFIX = {"dpe": "dpe", "placement-only": "placement_only", "heft": "heft"}


class Recorder:
    """Times every call into the program; while tracing, also keeps spans.

    Each pass keeps its calls in order as (layer, seconds) in both modes,
    because the end-to-end metrics need them. Spans are plain dicts kept in
    memory and written out when the run ends.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.tracing = False
        self.spans: list[dict] = []
        self.calls: list[tuple[str, float]] = []
        self.last = 0.0
        self._parent: int | None = None

    def open_pass(self, tracing: bool) -> float:
        self.tracing = tracing
        self.calls = []
        start = time.perf_counter()
        if tracing:
            self._parent = len(self.spans)
            self.spans.append(self._span(None, "suite", None, start, start, True))
        return start

    def close_pass(self, start: float) -> float:
        end = time.perf_counter()
        if self.tracing:
            self.spans[self._parent]["end"] = end - self.origin
            self._parent = None
        return end - start

    def _span(self, parent, name, call, start, end, ok) -> dict:
        return {
            "id": len(self.spans),
            "parent": parent,
            "name": name,
            "call": call,
            "start": start - self.origin,
            "end": end - self.origin,
            "ok": ok,
        }

    def call(self, layer: str, fn, *args):
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args)
            ok = True
        finally:
            end = time.perf_counter()
            self.last = end - start
            self.calls.append((layer, self.last))
            if self.tracing:
                self.spans.append(self._span(self._parent, layer, fn.__name__, start, end, ok))
        return result


@dataclass
class Case:
    record: object
    ready: dict[int, float] | None
    late_entry: bool


@dataclass
class Outcome:
    case: int
    algo: str
    result: object = None
    replay: float = 0.0
    error: str | None = None
    seconds: float = 0.0


@dataclass
class Pass:
    wall_s: float
    calls: list[tuple[str, float]]
    net: object
    catalog: object
    cases: list[Case]
    outcomes: list[Outcome]

    def glue_s(self) -> float:
        """Time the pass spent outside calls into the program."""
        return self.wall_s - sum(s for _, s in self.calls)


def run_pass(workload, seed, readys, rec: Recorder, tracing: bool) -> Pass:
    """One full pipeline pass; only calls into the program are timed."""
    start = rec.open_pass(tracing)
    net = rec.call("bench.generate", generate_network, workload.network_spec())
    records = [
        record
        for spec in workload.dag_specs(seed)
        for record in rec.call("bench.generate", generate_dag_records, spec)
    ]
    cases = [Case(r, ready, False) for r, ready in zip(records, readys)]
    if workload.late_entry:
        ready = late_entry_ready(workload.n_servers)
        cases += [Case(r, ready, True) for r in late_entry_records()]
    augs = [
        rec.call("model.augment", augment_dummy_tail, c.record.dag, c.record.dst_out)
        for c in cases
    ]
    catalog = rec.call("pathfind.catalog", build_catalog, net)
    routes = rec.call("baselines.routes", passive_routes, catalog)

    outcomes: list[Outcome] = []
    for k, (case, aug) in enumerate(zip(cases, augs)):
        for algo in ("dpe",) if case.late_entry else ALGORITHMS:
            ready = case.ready if algo == "dpe" else None
            if algo == "dpe":
                embed, args = dpe_embed, (aug, net, catalog, ready)
            elif algo == "placement-only":
                embed, args = placement_only_embed, (aug, net, catalog, routes)
            else:
                embed, args = heft_schedule, (aug, net, routes)
            try:
                result = rec.call(EMBED_LAYER[algo], embed, *args)
                seconds = rec.last
                _, replay = rec.call(
                    "embedder.replay", simulate_embedding,
                    aug, net, result.placements, result.edge_mappings, ready,
                )
            except Exception as exc:  # a failed embedding is counted, not fatal
                if not case.late_entry:
                    traceback.print_exc(file=sys.stderr)
                outcomes.append(Outcome(k, algo, error=f"{type(exc).__name__}: {exc}"))
                continue
            outcomes.append(Outcome(k, algo, result, replay, seconds=seconds))
    wall_s = rec.close_pass(start)
    return Pass(wall_s, rec.calls, net, catalog, cases, outcomes)


class FastestCalls:
    """Per call of a pass, by position, its fastest time over the passes.

    Passes over the same inputs make the same calls in the same order, so
    position k names the same call in every pass.
    """

    def __init__(self):
        self.calls: list[tuple[str, float]] = []
        self.glue_s: list[float] = []

    def fold(self, p: Pass) -> bool:
        """Fold in one pass; False if its calls differ from earlier passes."""
        self.glue_s.append(p.glue_s())
        if not self.calls:
            self.calls = list(p.calls)
            return True
        if [layer for layer, _ in p.calls] != [layer for layer, _ in self.calls]:
            return False
        self.calls = [(layer, min(a, b)) for (layer, a), (_, b) in zip(self.calls, p.calls)]
        return True

    def total(self, layer: str | None = None) -> float:
        return sum(s for name, s in self.calls if layer is None or name == layer)


def check_dag(record) -> CheckDag:
    dag = record.dag
    return CheckDag.build(
        [(f.id, f.flops) for f in dag.functions],
        [(e.src, e.dst, e.size) for e in dag.edges],
        record.dst_out,
    )


def ready_list(ready, n_servers):
    return None if ready is None else [ready[s] for s in range(n_servers)]


class Run:
    """Accumulates checks and measurements over the passes of one run."""

    def __init__(self):
        self.checker: Checker | None = None
        self.reference: tuple | None = None
        self.answers: dict[tuple[int, str], float] | None = None
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.untraced = FastestCalls()
        self.traced = FastestCalls()
        self.setup_s: list[float] = []
        # (case, algorithm) -> fastest embedding time over the passes
        self.fastest: dict[tuple[int, str], float] = {}
        self.makespans: dict[str, list[float]] = {a: [] for a in ALGORITHMS}

    def _fail(self, message: str) -> None:
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, p: Pass) -> list[CheckDag]:
        """Check every embedding of a pass; returns the checker's DAGs."""
        net = p.net
        if self.checker is None:
            self.reference = (net.servers, net.links)
            self.checker = Checker(
                [s.psi for s in net.servers],
                [(l.id, l.u, l.v, l.throughput) for l in net.links],
            )
        elif (net.servers, net.links) != self.reference:
            self._fail("the network differs between passes")
        dags = [check_dag(c.record) for c in p.cases]
        answers: dict[tuple[int, str], float] = {}
        for o in p.outcomes:
            case = p.cases[o.case]
            self.attempted += 1
            if o.error is not None:
                self.failed += 1
                if not case.late_entry:
                    self._fail(f"dag {o.case} {o.algo}: {o.error}")
                continue
            ready = case.ready if o.algo == "dpe" else None
            dag = dags[o.case]
            problems = self.checker.check(
                dag, o.algo, o.result, o.replay, ready_list(ready, net.n_servers)
            )
            if ready is None:
                optimum = self.checker.idle_optimum(dag)
                if o.algo == "heft":
                    if o.result.makespan < optimum * (1 - 1e-9):
                        problems.append(f"heft beats the idle optimum {optimum}")
                elif abs(o.result.makespan - optimum) > 1e-9 * optimum:
                    problems.append(f"makespan {o.result.makespan} misses the idle optimum {optimum}")
            if problems:
                self.failed += 1
                self._fail(f"dag {o.case} {o.algo}: {'; '.join(problems[:3])}")
            answers[(o.case, o.algo)] = o.result.makespan
        if self.answers is None:
            self.answers = answers
        elif answers != self.answers:
            self._fail("makespans differ between passes of the same inputs")
        return dags

    def measure(self, p: Pass, tracing: bool) -> None:
        """Fold a pass into the per-call timings; an untraced pass also
        into the end-to-end figures."""
        if not (self.traced if tracing else self.untraced).fold(p):
            self._fail("passes over the same inputs made different calls")
        if tracing:
            return
        self.setup_s.append(
            sum(s for layer, s in p.calls if layer in ("pathfind.catalog", "baselines.routes"))
        )
        makespans = {a: [] for a in ALGORITHMS}
        for o in p.outcomes:
            if o.error is None and not p.cases[o.case].late_entry:
                key = (o.case, o.algo)
                self.fastest[key] = min(o.seconds, self.fastest.get(key, o.seconds))
                makespans[o.algo].append(o.result.makespan)
        self.makespans = makespans

    def embed_seconds(self, algo: str) -> list[float]:
        return [s for (_, a), s in self.fastest.items() if a == algo]


def structure_counts(p: Pass, dags: list[CheckDag]) -> dict[str, int]:
    """Work counts of one pass: catalog size, DP structure, dpe splits."""
    n = p.net.n_servers
    counts = dict.fromkeys(
        (
            "embedder.dp_rows",
            "embedder.dp_recomputed_rows",
            "embedder.dp_commits",
            "embedder.dpe_split_edges",
            "embedder.dpe_routed_paths",
            "embedder.dpe_spread_dags",
        ),
        0,
    )
    counts["pathfind.paths"] = p.catalog.total_paths
    counts["pathfind.walk_calls"] = sum(p.catalog.recursion_calls.values())
    for o in p.outcomes:
        if o.algo != "dpe" or o.error is not None or p.cases[o.case].late_entry:
            continue
        rows, recomputed = dags[o.case].dp_structure()
        counts["embedder.dp_rows"] += rows * n
        counts["embedder.dp_recomputed_rows"] += recomputed * n
        counts["embedder.dp_commits"] += dags[o.case].fanout_functions()
        for mapping in o.result.edge_mappings.values():
            if not mapping.same_server:
                counts["embedder.dpe_routed_paths"] += len(mapping.paths)
                counts["embedder.dpe_split_edges"] += len(mapping.paths) >= 2
        counts["embedder.dpe_spread_dags"] += len(set(o.result.placements.values())) >= 2
    return counts


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
    return dict(sorted(out.items()))


def catalog_peak_mb(workload) -> float:
    """tracemalloc peak of one build_catalog call on the workload network."""
    net = generate_network(workload.network_spec())
    tracemalloc.start()
    try:
        build_catalog(net)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run) -> dict[str, dict]:
    dpe = run.embed_seconds("dpe")
    out = {
        "setup_s": metric(statistics.median(run.setup_s), "s"),
        "suite_s": metric(run.untraced.total(), "s"),
        "dpe_embed_p50_ms": metric(statistics.median(dpe) * 1e3, "ms"),
        "dpe_embed_p95_ms": metric(
            statistics.quantiles(dpe, n=20, method="inclusive")[18] * 1e3, "ms"
        ),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for a in ALGORITHMS:
        prefix = METRIC_PREFIX[a]
        seconds = run.embed_seconds(a)
        out[f"{prefix}_dags_per_s"] = metric(len(seconds) / sum(seconds), "DAG/s")
        out[f"{prefix}_mean_makespan_s"] = metric(statistics.fmean(run.makespans[a]), "s")
    return dict(sorted(out.items()))


def tracing_overhead(run: Run) -> float:
    """Extra time a traced pass spends outside the program's calls."""
    return min(run.traced.glue_s) - min(run.untraced.glue_s)


def per_layer(run: Run, counts: dict[str, int], peak: float) -> dict:
    out = {f"{layer}_s": metric(run.traced.total(layer), "s") for layer in LAYERS}
    out.update({name: metric(value, "count") for name, value in counts.items()})
    out["pathfind.catalog_peak_mb"] = metric(peak, "MB")
    out["trace.overhead_s"] = metric(tracing_overhead(run), "s")
    return dict(sorted(out.items()))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    readys = workload.ready_vectors(args.seed)
    rec = Recorder()
    run = Run()
    counts: dict[str, int] = {}
    peak = catalog_peak_mb(workload) if args.trace else 0.0

    begin = time.perf_counter()
    while True:
        for tracing in (False, True) if args.trace else (False,):
            p = run_pass(workload, args.seed, readys, rec, tracing)
            dags = run.check(p)
            run.measure(p, tracing)
            if tracing and not counts:
                counts = structure_counts(p, dags)
            # Drop the pass before the next one starts, so that one
            # catalog at a time is alive, as in a real run.
            del p, dags
        if len(run.setup_s) >= MIN_PASSES and time.perf_counter() - begin >= args.seconds:
            break

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not all(run.makespans.values()):
        print("error: an algorithm embedded no DAG; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(run, counts, peak)
        report = {
            "workload": workload.name,
            "seed": args.seed,
            "passes": {"traced": len(run.traced.glue_s), "untraced": len(run.untraced.glue_s)},
            "suite_s": {"traced": run.traced.total(), "untraced": run.untraced.total()},
            "glue_s": {"traced": min(run.traced.glue_s), "untraced": min(run.untraced.glue_s)},
            "self_time_s": self_times(rec.spans),
            "counts": counts,
            "metrics": metrics,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
            },
            "spans": rec.spans,
        }
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload.name}.json"
        path.write_text(json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")
        print(f"trace written to {path.relative_to(HERE.parent)}")
    else:
        metrics = end_to_end(run)
    passes = len(run.untraced.glue_s) + len(run.traced.glue_s)
    print(f"{workload.name} seed {args.seed}: {passes} passes, "
          f"{run.attempted} embeddings attempted, {run.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
