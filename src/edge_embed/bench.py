"""Reproducible workload generation and benchmark reporting.

All randomness flows through numpy PCG64 generators seeded from a single
integer via named substreams (SeedSequence spawn keys): stream 0 draws the
network, stream 1 draws DAG sizes and shapes, stream 2 draws weights
(flops, stream bits, destination output bits). Identical spec, identical
artifacts, byte for byte. Streams 1 and 2 are read as PCG64's raw 64-bit
words and turned into draws by the rules numpy's ``Generator`` applies to
them: Lemire's bounded integers on 32-bit halves for the shapes (each
function's predecessors by Floyd's sample), and 53-bit doubles for the
weights. These are exactly the draws ``integers``, ``choice(pos, size=k,
replace=False)`` and ``uniform`` made, so workloads are byte-identical to
those of versions that called them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .baselines import heft_schedule, placement_only_embed
from .embedder import EmbeddingResult, dpe_embed
from .errors import EdgeEmbedError, PathExplosionError, ValidationError
from .model import (
    AugmentedDag,
    EdgeNetwork,
    FunctionNode,
    Link,
    Server,
    StreamEdge,
    WorkloadDag,
    _is_integer,
    _is_real,
    _reached_from_0,
    _shown,
    _sum_left,
    _within_floats,
    augment_dummy_tail,
    canonical_json,
    dag_from_json,
    dag_to_json,
    make_network,
    network_from_json,
    network_to_json,
    validate_time_range,
    validate_network,
)
from .pathfind import PathCatalog, build_catalog, resolve_path_cap

STREAM_NETWORK = 0
STREAM_DAG_SHAPE = 1
STREAM_WEIGHTS = 2
MAX_NETWORK_ATTEMPTS = 1000
MAX_DAG_SIZE = 2**31 - 1  # keeps every shape draw's span within 32 bits
_RAW_CHUNK = 256  # raw words the shape stream reads at a time


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
        reals = ("psi_range", "bandwidth_range", "flops_range", "stream_range")
        for name in ("dag_size_range",) + reals:
            pair = getattr(self, name)
            if not (isinstance(pair, Sequence) and len(pair) == 2):
                raise ValidationError(f"{name}: {_shown(pair)} is not a (lo, hi) pair")
        counts = [("seed", self.seed), ("n_servers", self.n_servers), ("n_dags", self.n_dags)]
        for name, x in counts + [("dag_size_range", x) for x in self.dag_size_range]:
            if not _is_integer(x):
                raise ValidationError(f"{name}: {_shown(x)} is not an integer")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        for name, x in [("connectivity", self.connectivity)] + [
            (name, x) for name in reals for x in getattr(self, name)
        ]:
            if not _is_real(x):
                raise ValidationError(f"{name}: {_shown(x)} is not a number")
        if self.n_servers < 1 or self.n_dags < 1:
            raise ValidationError("server and DAG counts must be >= 1")
        if not 0.0 < self.connectivity <= 1.0:
            raise ValidationError("connectivity must lie in (0, 1]")
        if self.dag_size_range[0] < 1:
            raise ValidationError("DAG sizes must be >= 1")
        for name in ("dag_size_range",) + reals:
            lo, hi = getattr(self, name)
            if not (_within_floats(lo) and _within_floats(hi)):
                raise ValidationError(f"{name} must have finite ends")
            if lo <= 0 or lo > hi:
                raise ValidationError(f"{name} must satisfy 0 < lo <= hi")
        if self.dag_size_range[1] > MAX_DAG_SIZE:
            raise ValidationError(f"DAG sizes must be <= {MAX_DAG_SIZE}")


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


def generate_network(spec: WorkloadSpec) -> EdgeNetwork:
    """Draw a connected random network from the network substream: identical
    spec, identical network. A connected network has a simple path for every
    ordered server pair, so n(n-1) above ``resolve_path_cap()`` raises
    PathExplosionError before the first draw."""
    cap = resolve_path_cap()
    if spec.n_servers * (spec.n_servers - 1) > cap:
        raise PathExplosionError(cap)
    return _draw_network(spec, _substream(spec.seed, STREAM_NETWORK))


def _draw_network(spec: WorkloadSpec, rng: np.random.Generator) -> EdgeNetwork:
    """``spec``'s network from ``rng``: server powers first, then pair
    topologies, each keeping each pair with the connectivity probability,
    re-sampled (up to a bounded retry count) until connected, then one
    throughput per kept link."""
    n, p = spec.n_servers, spec.connectivity
    psi = rng.uniform(*spec.psi_range, size=n).tolist()
    for _ in range(MAX_NETWORK_ATTEMPTS):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if len(_reached_from_0(n, pairs)) == n:
            break
    else:
        raise EdgeEmbedError(
            f"no connected network found after {MAX_NETWORK_ATTEMPTS} "
            "attempts; raise the connectivity probability"
        )
    throughput = rng.uniform(*spec.bandwidth_range, size=len(pairs)).tolist()
    net = make_network(
        map(Server, range(n), psi),
        [Link(k, u, v, b) for k, ((u, v), b) in enumerate(zip(pairs, throughput))],
    )
    validate_network(net)
    return net


def _words32(rng: np.random.Generator) -> Iterator[int]:
    """The 32-bit words a fresh ``rng``'s ``integers`` reads, in order, as
    PCG64 hands them out: the low half, then the high half, of each raw
    64-bit word."""
    bit_generator = rng.bit_generator
    while True:
        raw = bit_generator.random_raw(_RAW_CHUNK)
        yield from raw.astype("<u8").view("<u4").tolist()


def _bounded(u32: Iterator[int], lo: int, hi: int) -> int:
    """``rng.integers(lo, hi)`` for a span hi - lo of at most 2**32, drawn
    from ``u32 = _words32(rng)`` with the same words.

    numpy applies Lemire's rule (Lemire, ACM TOMACS 2019): a span of 1
    reads no word; otherwise m = word * span is redrawn while its low 32
    bits fall below (2**32 - span) % span, and the draw is m's high bits.
    That bound is below span, so most draws skip the modulo.
    """
    span = hi - lo
    if span == 1:
        return lo
    m = next(u32) * span
    if m & 0xFFFFFFFF < span:
        threshold = (0x100000000 - span) % span
        while m & 0xFFFFFFFF < threshold:
            m = next(u32) * span
    return lo + (m >> 32)


def _floyd_sample(u32: Iterator[int], pos: int, k: int) -> list[int]:
    """``sorted(rng.choice(pos, size=k, replace=False))``, with the same draws.

    ``choice`` runs Floyd's sampling algorithm (Bentley & Floyd, CACM 1987)
    for small samples: for each j in pos-k .. pos-1 it draws v in [0, j] and
    keeps j if v is already taken, else v. It then shuffles the sample with
    k-1 more draws. The caller sorts the sample, so only the shuffle's draws
    matter, not its order.
    """
    sample: list[int] = []
    for j in range(pos - k, pos):
        v = _bounded(u32, 0, j + 1)
        sample.append(j if v in sample else v)
    for i in range(k - 1, 0, -1):
        _bounded(u32, 0, i + 1)
    sample.sort()
    return sample


def _unit_doubles(rng: np.random.Generator, count: int) -> list[float]:
    """The ``count`` doubles in [0, 1) that ``rng.uniform`` would scale:
    the top 53 bits of each raw 64-bit word, times 2**-53."""
    return ((rng.bit_generator.random_raw(count) >> 11) * 2.0**-53).tolist()


def _uniform(units: Sequence[float], lo: float, hi: float) -> list[float]:
    """``rng.uniform(lo, hi, len(units))`` from the unit doubles it scales."""
    span = hi - lo
    return [lo + span * u for u in units]


def generate_dag_records(spec: WorkloadSpec) -> list[DagRecord]:
    """Layered random DAGs: every non-entry picks 1..3 earlier functions.

    The shape stream gives each DAG its size, then for each function after
    the first its predecessor count k and a sample of k earlier functions.
    Once every shape is drawn, the weight stream gives each DAG in turn its
    flops, its stream bits and its destinations' output bits. Each DAG is
    valid by construction: dense ids, every edge from an earlier position
    to a later one, no repeated edge, and finite positive weights
    (``WorkloadSpec`` requires every range to be finite with 0 < lo).
    ``augment_dummy_tail`` validates it before any embedder reads it.
    """
    u32 = _words32(_substream(spec.seed, STREAM_DAG_SHAPE))
    lo, hi = spec.dag_size_range
    shapes: list[tuple[int, list[tuple[int, int]], list[int]]] = []
    n_weights = 0
    for _ in range(spec.n_dags):
        q = _bounded(u32, lo, hi + 1)
        edge_pairs: list[tuple[int, int]] = []
        for pos in range(1, q):
            k = _bounded(u32, 1, min(3, pos) + 1)
            edge_pairs.extend((p, pos) for p in _floyd_sample(u32, pos, k))
        sources = {src for src, _ in edge_pairs}
        destinations = [f for f in range(q) if f not in sources]
        shapes.append((q, edge_pairs, destinations))
        n_weights += q + len(edge_pairs) + len(destinations)
    units = _unit_doubles(_substream(spec.seed, STREAM_WEIGHTS), n_weights)
    records: list[DagRecord] = []
    at = 0
    for q, edge_pairs, destinations in shapes:
        n_bits = len(edge_pairs) + len(destinations)
        flops = _uniform(units[at:at + q], *spec.flops_range)
        bits = _uniform(units[at + q:at + q + n_bits], *spec.stream_range)
        at += q + n_bits
        # positional: a frozen dataclass builds faster without keywords
        functions = tuple(map(FunctionNode, range(q), flops))
        edges = tuple(StreamEdge(s, d, size) for (s, d), size in zip(edge_pairs, bits))
        dag = WorkloadDag(functions=functions, edges=edges)
        dst_out = dict(zip(destinations, bits[len(edge_pairs):]))
        records.append(DagRecord(dag=dag, dst_out=dst_out))
    return records


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or too deep
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_dag_records(path) -> list[DagRecord]:
    """Read an array of workload documents; failures name the record."""
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise ValidationError("top-level dags document must be an array")
    records: list[DagRecord] = []
    for index, obj in enumerate(doc):
        try:
            records.append(DagRecord(*dag_from_json(obj)))
        except ValidationError as exc:
            raise ValidationError(f"record {index}: {exc}") from exc
    return records


def load_network(path) -> EdgeNetwork:
    return network_from_json(_read_json(path))


def _write_texts(out_dir, texts: Mapping[str, str]) -> list[Path]:
    """Write each named text under ``out_dir``, creating it if needed."""
    out = Path(out_dir)
    written: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            path = out / name
            path.write_text(text, encoding="utf-8")
            written.append(path)
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc}") from exc
    return written


def write_workload(spec: WorkloadSpec, out_dir) -> tuple[Path, Path]:
    """Generate and persist net.json plus dags.json under ``out_dir``."""
    net = generate_network(spec)
    records = generate_dag_records(spec)
    dags = [dag_to_json(r.dag, r.dst_out) for r in records]
    net_path, dags_path = _write_texts(
        out_dir,
        {
            "net.json": json.dumps(network_to_json(net), sort_keys=True, indent=2) + "\n",
            "dags.json": json.dumps(dags, sort_keys=True, indent=2) + "\n",
        },
    )
    return net_path, dags_path


def network_fingerprint(net: EdgeNetwork) -> str:
    digest = hashlib.sha256(
        canonical_json(network_to_json(net)).encode("utf-8")
    )
    return digest.hexdigest()[:12]


# ---------------------------------------------------------------------------
# Trials and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    """One (DAG, algorithm) outcome inside a benchmark run."""

    dag_id: int
    algo: str
    makespan_s: float
    dag_size: int

    def __post_init__(self):
        if self.makespan_s <= 0:
            raise ValidationError(
                f"dag {self.dag_id} / {self.algo}: non-positive makespan"
            )


@dataclass(frozen=True)
class ReportBundle:
    """Aggregated benchmark outcome, ready to serialize."""

    algorithms: tuple[str, ...]
    n_dags: int
    trials: tuple[TrialRecord, ...]
    mean_makespan: dict[str, float]
    cdf: dict[str, list[tuple[float, float]]] = field(repr=False)
    reductions: dict[str, float]
    network_fingerprint: str
    seed: int | None = None


# name -> runner(aug, net, catalog, ready=None)
ALGORITHMS: dict[str, Callable[..., EmbeddingResult]] = {
    "dpe": dpe_embed,
    "heft": heft_schedule,
    "placement-only": lambda aug, net, catalog, ready=None:
        placement_only_embed(aug, net, catalog, ready=ready),
}


def run_benchmark(
    algorithms: Sequence[str],
    *,
    spec: WorkloadSpec | None = None,
    network: EdgeNetwork | None = None,
    dag_records: Sequence[DagRecord] | None = None,
) -> ReportBundle:
    """Embed every DAG with every requested algorithm and aggregate.

    The workload comes either from ``spec`` (regenerated from its seed) or
    from an explicit ``network``, validated first, plus ``dag_records``. The
    bundle depends on nothing else: it records no wall time, which
    ``benchmark/run.py`` measures instead.
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
        validate_network(network)
        seed = None
    if not dag_records:
        raise ValidationError("the DAG set is empty")

    catalog: PathCatalog = build_catalog(network)
    fingerprint = network_fingerprint(network)

    trials: list[TrialRecord] = []
    for dag_id, record in enumerate(dag_records):
        try:  # a rejected record is named as ``load_dag_records`` names it
            aug = record.augmented()
            validate_time_range(aug, network)
            makespans = [ALGORITHMS[algo](aug, network, catalog).makespan for algo in algos]
        except ValidationError as exc:
            raise ValidationError(f"record {dag_id}: {exc}") from exc
        size = len(record.dag.functions)
        trials += [TrialRecord(dag_id, algo, span, size) for algo, span in zip(algos, makespans)]
    trials.sort(key=lambda t: (t.dag_id, t.algo))

    mean_makespan = {}
    cdf = {}
    for algo in algos:
        spans = sorted(t.makespan_s for t in trials if t.algo == algo)
        mean_makespan[algo] = _sum_left(spans) / len(spans)
        cdf[algo] = [
            (span, (k + 1) / len(spans)) for k, span in enumerate(spans)
        ]
    reductions = {
        f"{a}_over_{b}": (mean_makespan[b] - mean_makespan[a]) / mean_makespan[b]
        for a in algos for b in algos if a != b
    }
    if not all(map(math.isfinite, (*mean_makespan.values(), *reductions.values()))):
        raise ValidationError("mean makespans overflow: the DAG set is too large")
    return ReportBundle(
        algorithms=tuple(algos),
        n_dags=len(dag_records),
        trials=tuple(trials),
        mean_makespan=mean_makespan,
        cdf=cdf,
        reductions=reductions,
        network_fingerprint=fingerprint,
        seed=seed,
    )


def _csv_text(header: list[str], rows) -> str:
    """A CSV table: the ``header`` row, then ``rows``, each ended by a newline."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    return buffer.getvalue()


def emit_report(bundle: ReportBundle, out_dir) -> list[Path]:
    """Write summary.json, trials.csv, and one CDF file per algorithm.

    Output bytes depend on nothing but the bundle: keys are sorted, floats
    use repr round-tripping, rows are ordered by (dag id, algorithm).
    """
    summary = {
        "algorithms": list(bundle.algorithms),
        "n_dags": bundle.n_dags,
        "network_fingerprint": bundle.network_fingerprint,
        "seed": bundle.seed,
        "mean_makespan_s": bundle.mean_makespan,
        "reductions": bundle.reductions,
    }
    texts = {
        "summary.json": json.dumps(summary, sort_keys=True, indent=2) + "\n",
        "trials.csv": _csv_text(
            ["dag_id", "algo", "makespan_s", "dag_size"],
            ([t.dag_id, t.algo, repr(t.makespan_s), t.dag_size] for t in bundle.trials),
        ),
    }
    for algo in bundle.algorithms:
        texts[f"cdf_{algo}.csv"] = _csv_text(
            ["makespan_s", "fraction"], ([repr(s), repr(f)] for s, f in bundle.cdf[algo])
        )
    return _write_texts(out_dir, texts)
