"""Reproducible workload generation and benchmark reporting.

All randomness flows through numpy PCG64 generators seeded from a single
integer via named substreams (SeedSequence spawn keys): stream 0 draws the
network, stream 1 draws DAG sizes and shapes, stream 2 draws weights
(flops, stream bits, destination output bits). Identical spec, identical
artifacts, byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .baselines import heft_schedule, passive_routes, placement_only_embed
from .embedder import EmbeddingResult, dpe_embed
from .errors import EdgeEmbedError, SchemaError, ValidationError
from .model import (
    AugmentedDag,
    EdgeNetwork,
    FunctionNode,
    Link,
    Server,
    StreamEdge,
    WorkloadDag,
    augment_dummy_tail,
    canonical_json,
    dag_from_json,
    dag_to_json,
    make_network,
    network_from_json,
    network_to_json,
    validate_time_range,
    validate_dag,
    validate_network,
)
from .pathfind import PathCatalog, build_catalog

STREAM_NETWORK = 0
STREAM_DAG_SHAPE = 1
STREAM_WEIGHTS = 2
MAX_NETWORK_ATTEMPTS = 1000


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to regenerate a benchmark workload from a seed."""

    seed: int = 0
    n_servers: int = 6
    connectivity: float = 0.5
    n_dags: int = 200
    dag_size_range: tuple[int, int] = (2, 20)
    psi_range: tuple[float, float] = (2.0e10, 4.0e10)  # flop/s
    bandwidth_range: tuple[float, float] = (3.0e7, 8.0e7)  # bit/s
    flops_range: tuple[float, float] = (1.0e9, 1.0e10)
    stream_range: tuple[float, float] = (5.0e6, 1.5e7)  # bits

    def __post_init__(self):
        if self.n_servers < 1 or self.n_dags < 1:
            raise ValidationError("server and DAG counts must be >= 1")
        if not 0.0 < self.connectivity <= 1.0:
            raise ValidationError("connectivity must lie in (0, 1]")
        if self.dag_size_range[0] < 1:
            raise ValidationError("DAG sizes must be >= 1")
        for name in ("dag_size_range", "psi_range", "bandwidth_range",
                     "flops_range", "stream_range"):
            lo, hi = getattr(self, name)
            if lo <= 0 or lo > hi:
                raise ValidationError(f"{name} must satisfy 0 < lo <= hi")


@dataclass(frozen=True)
class DagRecord:
    """A generated or imported workload plus its collector edge sizes."""

    dag: WorkloadDag
    dst_out: dict[int, float]

    def augmented(self) -> AugmentedDag:
        return augment_dummy_tail(self.dag, self.dst_out)


def _substream(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,)))
    )


def _connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nb in adj[node]:
            if nb not in reached:
                reached.add(nb)
                frontier.append(nb)
    return len(reached) == n


def _sample_topology(
    rng: np.random.Generator, n: int, probability: float
) -> list[tuple[int, int]]:
    """One round of pair sampling: each pair kept with ``probability``."""
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < probability
    ]


def generate_network(spec: WorkloadSpec) -> EdgeNetwork:
    """Draw a connected random network from the network substream.

    This is the first network of ``nested_networks``, which documents the
    draws. Identical spec always yields the identical network.
    """
    return nested_networks(spec, [spec.n_servers])[0]


def generate_dag_records(spec: WorkloadSpec) -> list[DagRecord]:
    """Layered random DAGs: every non-entry picks 1..3 earlier functions."""
    rng_shape = _substream(spec.seed, STREAM_DAG_SHAPE)
    rng_weight = _substream(spec.seed, STREAM_WEIGHTS)
    lo, hi = spec.dag_size_range
    records: list[DagRecord] = []
    for _ in range(spec.n_dags):
        q = int(rng_shape.integers(lo, hi + 1))
        edge_pairs: list[tuple[int, int]] = []
        for pos in range(1, q):
            k = int(rng_shape.integers(1, min(3, pos) + 1))
            preds = sorted(int(p) for p in rng_shape.choice(pos, size=k, replace=False))
            edge_pairs.extend((p, pos) for p in preds)
        flops = rng_weight.uniform(*spec.flops_range, size=q)
        sizes = rng_weight.uniform(*spec.stream_range, size=len(edge_pairs))
        functions = tuple(
            FunctionNode(id=i, flops=float(flops[i])) for i in range(q)
        )
        edges = tuple(
            StreamEdge(src=s, dst=d, size=float(sizes[k]))
            for k, (s, d) in enumerate(edge_pairs)
        )
        dag = WorkloadDag(functions=functions, edges=edges)
        validate_dag(dag)
        destinations = dag.destination_ids
        outs = rng_weight.uniform(*spec.stream_range, size=len(destinations))
        dst_out = {d: float(outs[k]) for k, d in enumerate(sorted(destinations))}
        records.append(DagRecord(dag=dag, dst_out=dst_out))
    return records


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def load_dag_records(path) -> list[DagRecord]:
    """Read an array of workload documents; failures name the record."""
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise SchemaError("top-level dags document must be an array")
    records: list[DagRecord] = []
    for index, obj in enumerate(doc):
        try:
            dag, dst_out = dag_from_json(obj)
            # Surface collector-size problems at load time, not mid-run.
            augment_dummy_tail(dag, dst_out)
        except ValidationError as exc:
            raise SchemaError(str(exc), record_index=index) from exc
        records.append(DagRecord(dag=dag, dst_out=dst_out))
    return records


def load_network(path) -> EdgeNetwork:
    return network_from_json(_read_json(path))


def write_workload(spec: WorkloadSpec, out_dir) -> tuple[Path, Path]:
    """Generate and persist net.json plus dags.json under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net = generate_network(spec)
    records = generate_dag_records(spec)
    net_path = out / "net.json"
    dags_path = out / "dags.json"
    net_path.write_text(
        json.dumps(network_to_json(net), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    dags_path.write_text(
        json.dumps(
            [dag_to_json(r.dag, r.dst_out) for r in records],
            sort_keys=True,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return net_path, dags_path


def network_fingerprint(net: EdgeNetwork) -> str:
    digest = hashlib.sha256(
        canonical_json(network_to_json(net)).encode("utf-8")
    )
    return digest.hexdigest()[:12]


def scale_network(
    net: EdgeNetwork, psi_factor: float = 1.0, throughput_factor: float = 1.0
) -> EdgeNetwork:
    """Same topology with uniformly scaled server and link capacities."""
    servers = [Server(id=s.id, psi=s.psi * psi_factor) for s in net.servers]
    links = [
        Link(id=l.id, u=l.u, v=l.v, throughput=l.throughput * throughput_factor)
        for l in net.links
    ]
    return make_network(servers, links)


def nested_networks(
    spec: WorkloadSpec, server_counts: Sequence[int]
) -> list[EdgeNetwork]:
    """A chain of networks where each one extends the previous.

    The smallest count is drawn from the network substream: server powers
    first, then pair topologies re-sampled (up to a bounded retry count)
    until connected, then one throughput per kept link. Every later count
    adds new servers, each wired to at least one existing server
    (guaranteeing connectivity) plus random extra links at the workload's
    connectivity probability. Existing servers and links keep their ids, so
    makespans across the chain compare like-for-like.
    """
    counts = sorted(server_counts)
    if len(set(counts)) != len(counts):
        raise ValidationError("server counts must be distinct")
    base_spec = replace(spec, n_servers=counts[0])
    rng = _substream(spec.seed, STREAM_NETWORK)
    n = base_spec.n_servers
    psi = [float(x) for x in rng.uniform(*spec.psi_range, size=n)]
    for _ in range(MAX_NETWORK_ATTEMPTS):
        pairs = _sample_topology(rng, n, spec.connectivity)
        if _connected(n, pairs):
            break
    else:
        raise EdgeEmbedError(
            f"no connected network found after {MAX_NETWORK_ATTEMPTS} "
            "attempts; raise the connectivity probability"
        )
    throughput = [float(x) for x in rng.uniform(*spec.bandwidth_range, size=len(pairs))]

    nets: list[EdgeNetwork] = []

    def freeze() -> EdgeNetwork:
        servers = [Server(id=i, psi=psi[i]) for i in range(len(psi))]
        links = [
            Link(id=k, u=u, v=v, throughput=throughput[k])
            for k, (u, v) in enumerate(pairs)
        ]
        net = make_network(servers, links)
        validate_network(net)
        return net

    nets.append(freeze())
    for count in counts[1:]:
        while len(psi) < count:
            new_id = len(psi)
            psi.append(float(rng.uniform(*spec.psi_range)))
            anchor = int(rng.integers(0, new_id))
            new_pairs = [(anchor, new_id)]
            for other in range(new_id):
                if other == anchor:
                    continue
                if rng.random() < spec.connectivity:
                    new_pairs.append((other, new_id))
            for pair in new_pairs:
                pairs.append(pair)
                throughput.append(float(rng.uniform(*spec.bandwidth_range)))
        nets.append(freeze())
    return nets


# ---------------------------------------------------------------------------
# Trials and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    """One (DAG, algorithm) outcome inside a benchmark run."""

    dag_id: int
    algo: str
    makespan_s: float
    runtime_s: float
    dag_size: int

    def __post_init__(self):
        if self.makespan_s <= 0:
            raise ValueError(
                f"dag {self.dag_id} / {self.algo}: non-positive makespan"
            )
        if self.runtime_s < 0:
            raise ValueError("runtime cannot be negative")


@dataclass(frozen=True)
class ReportBundle:
    """Aggregated benchmark outcome, ready to serialize."""

    algorithms: tuple[str, ...]
    n_dags: int
    trials: tuple[TrialRecord, ...]
    mean_makespan: dict[str, float]
    cdf: dict[str, list[tuple[float, float]]] = field(repr=False)
    reductions: dict[str, float]
    runtime_totals: dict[str, float]
    network_fingerprint: str
    seed: int | None = None


ALGORITHMS: dict[str, Callable[..., EmbeddingResult]] = {
    "dpe": lambda aug, net, catalog, routes: dpe_embed(aug, net, catalog),
    "heft": lambda aug, net, catalog, routes: heft_schedule(aug, net, routes),
    "placement-only": lambda aug, net, catalog, routes: placement_only_embed(
        aug, net, catalog, routes
    ),
}


def run_benchmark(
    algorithms: Sequence[str],
    *,
    spec: WorkloadSpec | None = None,
    network: EdgeNetwork | None = None,
    dag_records: Sequence[DagRecord] | None = None,
    timing: str = "wall",
) -> ReportBundle:
    """Embed every DAG with every requested algorithm and aggregate.

    The workload comes either from ``spec`` (regenerated from its seed) or
    from an explicit ``network`` plus ``dag_records``. With ``timing`` set
    to "off", per-trial runtimes are recorded as zero so the bundle (and
    everything serialized from it) is fully deterministic; "wall" records
    real elapsed seconds per embed call.
    """
    algos = list(algorithms)
    if not algos:
        raise ValidationError("at least one algorithm is required")
    unknown = [a for a in algos if a not in ALGORITHMS]
    if unknown:
        raise ValidationError(
            f"unknown algorithms {unknown}; choose from {sorted(ALGORITHMS)}"
        )
    if len(set(algos)) != len(algos):
        raise ValidationError("duplicate algorithm names")
    if timing not in ("wall", "off"):
        raise ValidationError("timing must be 'wall' or 'off'")

    if spec is not None:
        if network is not None or dag_records is not None:
            raise ValidationError("pass either spec or explicit network + dags")
        network = generate_network(spec)
        dag_records = generate_dag_records(spec)
        seed: int | None = spec.seed
    else:
        if network is None or dag_records is None:
            raise ValidationError(
                "without a spec, network and dag_records are required"
            )
        seed = None

    catalog: PathCatalog = build_catalog(network)
    routes = passive_routes(catalog)
    fingerprint = network_fingerprint(network)

    trials: list[TrialRecord] = []
    runtime_totals = {a: 0.0 for a in algos}
    for dag_id, record in enumerate(dag_records):
        aug = record.augmented()
        validate_time_range(aug, network)
        for algo in algos:
            runner = ALGORITHMS[algo]
            if timing == "wall":
                t0 = time.perf_counter()
                result = runner(aug, network, catalog, routes)
                elapsed = time.perf_counter() - t0
            else:
                result = runner(aug, network, catalog, routes)
                elapsed = 0.0
            runtime_totals[algo] += elapsed
            trials.append(
                TrialRecord(
                    dag_id=dag_id,
                    algo=algo,
                    makespan_s=result.makespan,
                    runtime_s=elapsed,
                    dag_size=len(record.dag.functions),
                )
            )
    trials.sort(key=lambda t: (t.dag_id, t.algo))

    mean_makespan = {}
    cdf = {}
    for algo in algos:
        spans = sorted(t.makespan_s for t in trials if t.algo == algo)
        mean_makespan[algo] = sum(spans) / len(spans)
        cdf[algo] = [
            (span, (k + 1) / len(spans)) for k, span in enumerate(spans)
        ]
    reductions = {}
    for a in algos:
        for b in algos:
            if a == b:
                continue
            reductions[f"{a}_over_{b}"] = (
                (mean_makespan[b] - mean_makespan[a]) / mean_makespan[b]
            )
    if not all(map(math.isfinite, (*mean_makespan.values(), *reductions.values()))):
        raise ValidationError("mean makespans overflow: the DAG set is too large")
    return ReportBundle(
        algorithms=tuple(algos),
        n_dags=len(dag_records),
        trials=tuple(trials),
        mean_makespan=mean_makespan,
        cdf=cdf,
        reductions=reductions,
        runtime_totals=runtime_totals,
        network_fingerprint=fingerprint,
        seed=seed,
    )


def emit_report(bundle: ReportBundle, out_dir) -> list[Path]:
    """Write summary.json, trials.csv, and one CDF file per algorithm.

    Output bytes depend on nothing but the bundle: keys are sorted, floats
    use repr round-tripping, rows are ordered by (dag id, algorithm).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    summary = {
        "algorithms": list(bundle.algorithms),
        "n_dags": bundle.n_dags,
        "network_fingerprint": bundle.network_fingerprint,
        "seed": bundle.seed,
        "mean_makespan_s": bundle.mean_makespan,
        "runtime_total_s": bundle.runtime_totals,
        "reductions": bundle.reductions,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    written.append(summary_path)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["dag_id", "algo", "makespan_s", "runtime_s", "dag_size"])
    for t in bundle.trials:
        writer.writerow(
            [t.dag_id, t.algo, repr(t.makespan_s), repr(t.runtime_s), t.dag_size]
        )
    trials_path = out / "trials.csv"
    trials_path.write_text(buffer.getvalue(), encoding="utf-8")
    written.append(trials_path)

    for algo in bundle.algorithms:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["makespan_s", "fraction"])
        for span, fraction in bundle.cdf[algo]:
            writer.writerow([repr(span), repr(fraction)])
        cdf_path = out / f"cdf_{algo}.csv"
        cdf_path.write_text(buffer.getvalue(), encoding="utf-8")
        written.append(cdf_path)
    return written
