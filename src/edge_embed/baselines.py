"""Reference schedulers the dynamic program is benchmarked against.

Both baselines send every transfer whole over one fixed route per server
pair, the cheapest simple path (the passive route), where ``dpe`` splits
it over every path of the pair. The list scheduler additionally
serializes functions that share a server, while the placement-only
embedder runs the dynamic program with the passive route's costs and
differs from ``dpe`` in nothing but the missing stream splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .embedder import EmbeddingResult, Route, _dynamic_embed, _map_streams
from .model import AugmentedDag, EdgeNetwork, processing_time
from .pathfind import PathCatalog, SimplePath


@dataclass(frozen=True)
class PassiveRoute:
    """Cheapest single simple path per ordered server pair.

    ``path[(u, v)]`` is the catalog's cheapest path and
    ``coefficient[u, v]`` its seconds-per-bit cost: the catalog's n x n
    ``cheapest_coefficient`` matrix, zero on the diagonal where no routing
    happens.
    """

    path: dict[tuple[int, int], SimplePath] = field(repr=False)
    coefficient: np.ndarray = field(repr=False)


def passive_routes(catalog: PathCatalog) -> PassiveRoute:
    """The catalog's cheapest path and cost matrix, built once per network.

    Coefficient ties resolve to the path that comes first in canonical
    order, which the catalog already guarantees.
    """
    return PassiveRoute(path=catalog.cheapest, coefficient=catalog.cheapest_coefficient)


def _whole_route(routes: PassiveRoute) -> Route:
    """A stream sent whole over its pair's passive route."""
    return lambda m, n, bits: ((routes.path[(m, n)],), (bits,))


# ---------------------------------------------------------------------------
# List scheduling by upward rank with insertion-based slot search
# ---------------------------------------------------------------------------


def compute_rank_table(
    dag: AugmentedDag, net: EdgeNetwork, routes: PassiveRoute
) -> dict[int, float]:
    """Upward rank per function: the priority of the list scheduler.

    A function's rank is its processing time averaged over all servers
    plus the largest (mean transfer time + successor rank) over its
    out-edges, i.e. the average length of the longest remaining chain. The
    mean transfer time averages an edge's cost over all ordered server
    pairs; same-server pairs contribute zero.
    """
    n = net.n_servers
    # Mean over all n^2 ordered pairs; the zero diagonal adds nothing.
    coeff_total = sum(chain.from_iterable(routes.coefficient.tolist()))
    mean_coeff = coeff_total / (n * n)
    upward: dict[int, float] = {}
    for node in reversed(dag.functions):
        best_tail = 0.0
        for dst in dag.successors[node.id]:
            tail = dag.stream_size[(node.id, dst)] * mean_coeff + upward[dst]
            if tail > best_tail:
                best_tail = tail
        avg_exec = sum(processing_time(node, s) for s in net.servers) / n
        upward[node.id] = avg_exec + best_tail
    return upward


def _insertion_start(
    busy: list[tuple[float, float]], ready: float, duration: float
) -> float:
    """Earliest start >= ready that fits ``duration`` into the busy list."""
    start = ready
    for b_start, b_end in busy:
        if start + duration <= b_start:
            break
        if b_end > start:
            start = b_end
    return start


def heft_schedule(
    dag: AugmentedDag, net: EdgeNetwork, routes: PassiveRoute
) -> EmbeddingResult:
    """Classic upward-rank list scheduling on the augmented workload.

    Functions are taken in decreasing rank order; each is placed on the
    server with the earliest insertion-based finish time, where input
    transfers pay the passive route's full-stream cost. Servers run one
    function at a time. The collector ranks last and its finish time is
    the makespan.
    """
    rank = compute_rank_table(dag, net, routes)
    coeff = routes.coefficient.tolist()  # Python floats keep finish times plain
    order = sorted(
        (f.id for f in dag.functions),
        key=lambda fid: (-rank[fid], dag.position[fid]),
    )

    busy: dict[int, list[tuple[float, float]]] = {s.id: [] for s in net.servers}
    placements: dict[int, int] = {}
    finish_times: dict[int, float] = {}

    for fid in order:
        node = dag.by_id[fid]
        inputs = [(p, dag.stream_size[(p, fid)]) for p in dag.predecessors[fid]]
        best_finish = float("inf")
        best_server = -1
        best_start = 0.0
        for server in net.servers:
            ready = 0.0
            for pred, bits in inputs:
                comm = bits * coeff[placements[pred]][server.id]
                arrive = finish_times[pred] + comm
                if arrive > ready:
                    ready = arrive
            duration = processing_time(node, server)
            start = _insertion_start(busy[server.id], ready, duration)
            eft = start + duration
            if eft < best_finish:  # strict: ties keep the smallest id
                best_finish = eft
                best_server = server.id
                best_start = start
        placements[fid] = best_server
        finish_times[fid] = best_finish
        busy[best_server].append((best_start, best_finish))
        busy[best_server].sort()

    return EmbeddingResult(
        placements=placements,
        edge_mappings=_map_streams(dag, placements, _whole_route(routes)),
        finish_times=finish_times,
        makespan=finish_times[dag.dummy_id],
    )


# ---------------------------------------------------------------------------
# Placement-only embedding: the dynamic program without stream splitting
# ---------------------------------------------------------------------------


def placement_only_embed(
    dag: AugmentedDag,
    net: EdgeNetwork,
    catalog: PathCatalog,
    routes: PassiveRoute | None = None,
) -> EmbeddingResult:
    """The dynamic program with every split replaced by the passive route.

    Same recurrence, same commit-once rule, same tie-breaks; the only
    difference from the full embedder is how a stream travels: whole over
    the pair's single cheapest path, so s bits take s * A_min seconds.
    """
    if routes is None:
        routes = passive_routes(catalog)
    return _dynamic_embed(
        dag, net, lambda bits: bits * routes.coefficient, _whole_route(routes), None
    )
