"""Reference schedulers the dynamic program is benchmarked against.

Both baselines send every transfer whole over one fixed route per server
pair, the path catalog's cheapest simple path, where ``dpe`` splits it
over every path of the pair; both read the pair costs from the catalog,
like every embedder. The list scheduler additionally serializes functions
that share a server, while the placement-only embedder runs the dynamic
program without splits and differs from ``dpe`` in nothing else.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain

from .embedder import EmbeddingResult, _dynamic_embed, _map_streams, _processing_table
from .model import AugmentedDag, EdgeNetwork, _ready_row, _sum_left
from .pathfind import PathCatalog


def passive_routes(catalog: PathCatalog) -> PathCatalog:
    """The catalog itself, which holds each pair's cheapest path and cost;
    kept only for the benchmark's call shape until ROADMAP direction 1
    moves ``benchmark/run.py`` onto ``bench.ALGORITHMS``."""
    return catalog


# ---------------------------------------------------------------------------
# List scheduling by upward rank with insertion-based slot search
# ---------------------------------------------------------------------------


def _upward_rank(
    dag: AugmentedDag, procs: list[list[float]], coeff: list[list[float]]
) -> list[float]:
    """Upward rank by function id, the list scheduler's priority: a
    function's mean over servers in the F x n time table ``procs`` (stored
    order) plus its largest mean transfer (n x n cheapest-path cost
    ``coeff``) + consumer rank, pushed to each source in reverse stored
    order: the same max over the same floats as a pull from the consumers."""
    n = len(coeff)
    # Mean over all n^2 ordered pairs; the zero diagonal adds nothing.
    mean_coeff = _sum_left(chain.from_iterable(coeff)) / (n * n)
    inputs = dag.stream_table[0]
    best_tail = [0.0] * len(procs)
    upward = [0.0] * len(procs)
    for node, proc in zip(reversed(dag.functions), reversed(procs)):
        fid = node.id
        rank = upward[fid] = _sum_left(proc) / n + best_tail[fid]
        for src, bits in inputs[fid]:
            tail = bits * mean_coeff + rank
            if tail > best_tail[src]:
                best_tail[src] = tail
    return upward


def heft_schedule(
    dag: AugmentedDag, net: EdgeNetwork, catalog: PathCatalog, ready=None
) -> EmbeddingResult:
    """Classic upward-rank list scheduling on the augmented workload.

    Functions are taken in decreasing rank order; each is placed on the server
    with the earliest insertion-based finish time, where input transfers pay
    the full-stream cost of the catalog's cheapest path. Servers run one
    function at a time. As in the recurrence, a server's ready time is the
    earliest start of an entry function on it; other functions start once
    their inputs arrive. The collector ranks last and its finish time is the
    makespan. Processing times come from the dynamic program's table, so both
    price a function with the same floats.
    """
    # Python floats keep finish times plain
    procs = _processing_table(dag, net).tolist()
    coeff = catalog.cheapest_coefficient.tolist()
    rank = _upward_rank(dag, procs, coeff)
    position = dag.position
    order = sorted(position, key=rank.__getitem__, reverse=True)  # stable: ties keep stored order

    inputs_of = dag.stream_table[0]
    servers = range(len(coeff))
    ready_row = _ready_row(net, ready)
    idle = [0.0] * len(coeff)
    # busy[s]: the (start, finish) slots taken on server s, in time order
    busy: list[list[tuple[float, float]]] = [[] for _ in servers]
    placements: dict[int, int] = {}
    finish_times: dict[int, float] = {}

    for fid in order:
        proc = procs[position[fid]]
        inputs = [
            (finish_times[p], coeff[placements[p]], bits) for p, bits in inputs_of[fid]
        ]
        best_finish = float("inf")
        best_server = 0
        best_start = 0.0
        floor = idle if inputs else ready_row
        for server, duration, slots, start in zip(servers, proc, busy, floor):
            for finish, row, bits in inputs:
                arrive = finish + bits * row[server]
                if arrive > start:
                    start = arrive
            # insertion: the earliest start from here that fits between slots
            for slot_start, slot_end in slots:
                if start + duration <= slot_start:
                    break
                if slot_end > start:
                    start = slot_end
            eft = start + duration
            if eft < best_finish:  # strict: ties keep the smallest id
                best_finish = eft
                best_server = server
                best_start = start
        placements[fid] = best_server
        finish_times[fid] = best_finish
        insort(busy[best_server], (best_start, best_finish))

    return EmbeddingResult(
        placements=placements,
        edge_mappings=_map_streams(dag, placements, catalog, False),
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
    routes: PathCatalog | None = None,
    ready=None,
) -> EmbeddingResult:
    """The dynamic program with every stream sent whole over its pair's
    cheapest path (s bits take s * A_min seconds); recurrence, commit-once
    rule and tie-breaks are ``dpe``'s. ``routes``, the catalog by default,
    stays only for the benchmark's call shape until ROADMAP direction 1
    moves ``benchmark/run.py`` onto ``bench.ALGORITHMS``.
    """
    return _dynamic_embed(dag, net, catalog if routes is None else routes, False, ready)
