"""Joint placement and stream-mapping via dynamic programming.

Functions are processed in topological order. For a fixed placement of a
function f_j on server n, the earliest finish of f_j is the slowest of its
incoming transfers, where each transfer independently picks the source
placement and stream split that deliver it soonest:

    T*(f_j, n) = max over preds f_i of
                 min over source m of
                 T*(f_i, m) + transit(m, n, s_ij) + proc(f_j, n)

Transit uses the bottleneck-equalizing split over every simple path of the
(m, n) pair, or zero when m == n. The recurrence reads transit as one dense
server-by-server matrix per stream, priced from the catalog's n x n pair
tables: ``bits / catalog.inv_coeff_sum`` (infinite diagonal) for the split,
and ``bits * catalog.cheapest_coefficient`` (zero diagonal) for the
placement-only baseline, which runs the same program. A predecessor that
feeds several functions cannot be re-placed per consumer: the first
consumer processed commits its placement and later consumers reuse it. The
first consumer's row reads the input's arrival from the committed server's
row of its min-plus block, equal to a recompute, so every finish time is
one embedding's.

An exhaustive search over all placement vectors doubles as the optimality
oracle, and a forward replay of any returned embedding re-derives its
finish times from nothing but the recurrence.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EdgeEmbedError
from .model import AugmentedDag, EdgeNetwork, processing_time
from .pathfind import PathCatalog, SimplePath, path_coefficient
from .splitter import SplitProblem, optimal_split, routing_time

EXHAUSTIVE_LIMIT = 10**6


@dataclass(frozen=True)
class EdgeMapping:
    """How one stream travels: over concrete paths, or not at all."""

    same_server: bool
    paths: tuple[SimplePath, ...] = ()
    allocations: tuple[float, ...] = ()


@dataclass(frozen=True)
class EmbeddingResult:
    """A complete embedding: placements, stream mappings, finish times."""

    placements: dict[int, int]
    edge_mappings: dict[tuple[int, int], EdgeMapping]
    finish_times: dict[int, float]
    makespan: float


def _ready_map(net: EdgeNetwork, ready) -> dict[int, float]:
    if ready is None:
        return {s.id: 0.0 for s in net.servers}
    return {s.id: float(ready.get(s.id, 0.0)) for s in net.servers}


def _dynamic_embed(
    dag: AugmentedDag,
    net: EdgeNetwork,
    transit: Callable[[float], np.ndarray],
    ready,
) -> tuple[dict[int, int], dict[int, float], float]:
    """Shared DP driver; ``transit(bits)`` is the n x n matrix of seconds
    a stream of ``bits`` takes from server m (row) to server n (column).

    Visits every function in stored topological order. An entry's row is
    its processing time plus the server's ready time; any other row is the
    slowest over its inputs of one min-plus step per uncommitted
    predecessor (the smallest source server id wins ties). The commit-once
    rule pins a predecessor feeding more than one function to the source
    it used at the committing row's best destination c; its arrival is then
    row c of its min-plus block, equal to a recompute under that commitment.
    Pointers are walked backward from the best collector placement. Returns
    placements, finish times and the makespan.
    """
    psi = np.array([s.psi for s in net.servers])
    ready_row = np.zeros(net.n_servers)
    if ready is not None:
        ready_row = np.array([float(ready.get(s.id, 0.0)) for s in net.servers])
    finish: dict[int, np.ndarray] = {}
    # sources[fj][fi]: fi's server per server of fj, or one int if committed.
    sources: dict[int, dict[int, np.ndarray | int]] = {}
    committed: dict[int, int] = {}

    for node in dag.functions:
        fj = node.id
        proc = node.flops / psi  # the collector's flops are 0
        preds = dag.predecessors[fj]
        if not preds:
            finish[fj] = proc + ready_row
            continue
        arrivals: dict[int, np.ndarray] = {}
        picks: dict[int, np.ndarray | int] = {}
        blocks: dict[int, np.ndarray] = {}  # fan-out inputs this row commits
        for fi in preds:
            cost = transit(dag.stream_size[(fi, fj)])
            c = committed.get(fi)
            if c is None:
                phi = (finish[fi][:, None] + cost) + proc[None, :]
                picks[fi] = phi.argmin(axis=0)
                arrivals[fi] = phi.min(axis=0)
                if dag.out_degree[fi] >= 2:
                    blocks[fi] = phi
            else:
                picks[fi] = c
                arrivals[fi] = (finish[fi][c] + cost[c]) + proc
        row = functools.reduce(np.maximum, arrivals.values())
        if blocks:
            n_hat = int(row.argmin())
            for fi, phi in blocks.items():
                c = int(picks[fi][n_hat])
                committed[fi] = picks[fi] = c
                arrivals[fi] = phi[c]
            row = functools.reduce(np.maximum, arrivals.values())
        finish[fj] = row
        sources[fj] = picks

    dummy = dag.dummy_id
    # Reverse topological order guarantees a function's own placement is
    # known before its in-edges are resolved.
    placements: dict[int, int] = {dummy: int(finish[dummy].argmin())}
    for fj, inputs in reversed(sources.items()):
        for fi, pick in inputs.items():
            src = pick if isinstance(pick, int) else int(pick[placements[fj]])
            prior = placements.setdefault(fi, src)
            if prior != src:
                raise AssertionError(
                    f"inconsistent placement for function {fi}: {prior} vs {src}"
                )
    finish_times = {f: float(row[placements[f]]) for f, row in finish.items()}
    return placements, finish_times, finish_times[dummy]


def _split_mappings(
    dag: AugmentedDag, catalog: PathCatalog, placements: dict[int, int]
) -> dict[tuple[int, int], EdgeMapping]:
    """Every stream of a placed DAG spread over all paths of its pair."""
    mappings: dict[tuple[int, int], EdgeMapping] = {}
    for e in dag.edges:
        m, v = placements[e.src], placements[e.dst]
        if m == v:
            mappings[(e.src, e.dst)] = EdgeMapping(same_server=True)
        else:
            split = optimal_split(
                SplitProblem(
                    coefficients=catalog.pair_coefficients(m, v),
                    stream_size=e.size,
                )
            )
            mappings[(e.src, e.dst)] = EdgeMapping(
                same_server=False,
                paths=catalog.pair_paths(m, v),
                allocations=split.allocations,
            )
    return mappings


def dpe_embed(
    dag: AugmentedDag,
    net: EdgeNetwork,
    catalog: PathCatalog,
    ready=None,
) -> EmbeddingResult:
    """Minimize the collector's finish time over placements and splits.

    A stream of s bits from m to n takes s / sum(1/A_k) over the pair's
    paths; the infinite diagonal makes same-server transit exactly 0.
    """
    placements, finish_times, makespan = _dynamic_embed(
        dag, net, lambda bits: bits / catalog.inv_coeff_sum, ready
    )
    return EmbeddingResult(
        placements=placements,
        edge_mappings=_split_mappings(dag, catalog, placements),
        finish_times=finish_times,
        makespan=makespan,
    )


def brute_force_embed(
    dag: AugmentedDag,
    net: EdgeNetwork,
    catalog: PathCatalog,
    ready=None,
    limit: int = EXHAUSTIVE_LIMIT,
) -> EmbeddingResult:
    """Exhaustive optimum over every placement vector (streams still split
    optimally per edge, which is closed-form and independent per edge).

    Ties are broken toward the lexicographically smallest placement vector
    in stored function order. Guarded by ``limit`` on the number of
    placement vectors.
    """
    n = net.n_servers
    q = len(dag.functions)
    combos = n**q
    if combos > limit:
        raise EdgeEmbedError(
            f"{combos} placement vectors exceed the exhaustive-search "
            f"limit of {limit}"
        )

    ready_map = _ready_map(net, ready)
    order = [f.id for f in dag.functions]
    index_of = {fid: k for k, fid in enumerate(order)}
    proc = [
        [processing_time(dag.by_id[fid], server) for server in net.servers]
        for fid in order
    ]
    # transit_factor[m][n]: seconds per bit between servers m and n (1/inf
    # is 0.0 on the diagonal).
    transit_factor = (1.0 / catalog.inv_coeff_sum).tolist()
    ready_row = [ready_map[s.id] for s in net.servers]
    # Per function: list of (pred index, stream bits) for the recurrence.
    pred_rows: list[list[tuple[int, float]]] = [[] for _ in order]
    for e in dag.edges:
        pred_rows[index_of[e.dst]].append((index_of[e.src], e.size))

    best_value = float("inf")
    best_vector: tuple[int, ...] | None = None
    finish = [0.0] * q
    for vector in itertools.product(range(n), repeat=q):
        for k in range(q):
            server = vector[k]
            inputs = pred_rows[k]
            if not inputs:
                finish[k] = proc[k][server] + ready_row[server]
            else:
                slowest = 0.0
                for pk, bits in inputs:
                    arrive = finish[pk] + bits * transit_factor[vector[pk]][server]
                    if arrive > slowest:
                        slowest = arrive
                finish[k] = slowest + proc[k][server]
        value = finish[q - 1]  # collector is last in stored order
        if value < best_value:  # strict: keeps lexicographically first
            best_value = value
            best_vector = vector

    assert best_vector is not None
    placements = {fid: best_vector[index_of[fid]] for fid in order}
    mappings = _split_mappings(dag, catalog, placements)
    finish_times, makespan = simulate_embedding(dag, net, placements, mappings, ready)
    return EmbeddingResult(
        placements=placements,
        edge_mappings=mappings,
        finish_times=finish_times,
        makespan=makespan,
    )


def simulate_embedding(
    dag: AugmentedDag,
    net: EdgeNetwork,
    placements: dict[int, int],
    edge_mappings: dict[tuple[int, int], EdgeMapping],
    ready=None,
) -> tuple[dict[int, float], float]:
    """Replay a fixed embedding through the finish-time recurrence.

    Routing times are re-derived from the mapped paths and the raw link
    throughputs, independent of any catalog aggregates, so this doubles as
    the self-consistency oracle for every embedding producer.
    """
    ready_map = _ready_map(net, ready)
    finish: dict[int, float] = {}
    for node in dag.functions:
        fid = node.id
        server = net.servers[placements[fid]]
        proc = processing_time(node, server)
        preds = dag.predecessors[fid]
        if not preds:
            finish[fid] = proc + ready_map[server.id]
            continue
        slowest_input = 0.0
        for fi in preds:
            mapping = edge_mappings[(fi, fid)]
            if mapping.same_server:
                transit = 0.0
            else:
                branches = [
                    (path_coefficient(p, net), z)
                    for p, z in zip(mapping.paths, mapping.allocations)
                ]
                transit = routing_time(branches)
            slowest_input = max(slowest_input, finish[fi] + transit)
        finish[fid] = slowest_input + proc
    return finish, finish[dag.dummy_id]


def embedding_to_json(result: EmbeddingResult) -> dict:
    """Plain-dict rendering of an embedding for the CLI and reports."""
    edges = []
    for (src, dst), mapping in sorted(result.edge_mappings.items()):
        edges.append(
            {
                "src": src,
                "dst": dst,
                "same_server": mapping.same_server,
                "paths": [list(p.nodes) for p in mapping.paths],
                "z": list(mapping.allocations),
            }
        )
    return {
        "placements": {str(f): s for f, s in sorted(result.placements.items())},
        "edges": edges,
        "finish_times": {str(f): t for f, t in sorted(result.finish_times.items())},
        "makespan": result.makespan,
    }
