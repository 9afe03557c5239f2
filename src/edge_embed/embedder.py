"""Joint placement and stream-mapping via dynamic programming.

Functions are processed in topological order. For a fixed placement of a
function f_j on server n, the earliest finish of f_j is the slowest of its
incoming transfers, where each transfer independently picks the source
placement and stream split that deliver it soonest:

    T*(f_j, n) = max over preds f_i of
                 min over source m of
                 T*(f_i, m) + transit(m, n, s_ij) + proc(f_j, n)

Transit uses the bottleneck-equalizing split over every simple path of the
(m, n) pair, or zero when m == n; the placement-only baseline runs the same
program with each stream sent whole over the pair's cheapest path. A
predecessor that feeds several functions cannot be re-placed per consumer:
the first consumer processed commits its placement and later consumers
reuse it, so every finish time is one embedding's (``_forward``, ``_walk``).

Every embedder reads the same shared tables: the path catalog for pair
costs and splits (a split stream is mapped by ``optimal_split``'s closed
form on the catalog's terms), ``_processing_table`` for processing times
and the DAG's ``stream_table`` for each function's inputs; a catalog sized
for another server count raises ValidationError (``_check_catalog``). An
exhaustive search over all placement vectors is the optimality oracle, and
a forward replay of any returned embedding is the independent check: it
re-derives every finish time from the placements, the mapped paths, the
flops and the raw link throughputs alone.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import EdgeEmbedError, ValidationError
from .model import AugmentedDag, EdgeNetwork, _ready_row, _record
from .pathfind import PathCatalog, SimplePath
from .splitter import _equalize

EXHAUSTIVE_LIMIT = 10**6


@_record
class EdgeMapping:
    """A stream's bits per path; with no paths it stays on one server."""

    paths: tuple[SimplePath, ...] = ()
    allocations: tuple[float, ...] = ()

    @property
    def same_server(self) -> bool:
        return not self.paths


@_record
class EmbeddingResult:
    """A complete embedding: placements, stream mappings, finish times."""

    placements: dict[int, int]
    edge_mappings: dict[tuple[int, int], EdgeMapping]
    finish_times: dict[int, float]
    makespan: float


# shared by every same-server stream: the mapping is immutable
_SAME_SERVER = EdgeMapping()


def _map_streams(
    dag: AugmentedDag, placements: dict[int, int], catalog: PathCatalog, split: bool
) -> dict[tuple[int, int], EdgeMapping]:
    """Every stream of a placed DAG: free on one server, else spread over its
    pair's paths by ``_equalize`` on ``catalog.pair_split``'s terms (``split``)
    or sent whole over the pair's cheapest path. Keyed by ``dag.stream_keys``,
    so every embedding of ``dag`` shares one key object per stream."""
    mappings: dict[tuple[int, int], EdgeMapping] = {}
    for key, e in zip(dag.stream_keys, dag.edges):
        m, n = placements[e.src], placements[e.dst]
        if m == n:
            mappings[key] = _SAME_SERVER
        elif split:
            paths, coefficients, *terms = catalog.pair_split(m, n)
            mappings[key] = EdgeMapping(paths, _equalize(coefficients, float(e.size), *terms)[1])
        else:
            mappings[key] = EdgeMapping((catalog.cheapest_path(m, n),), (float(e.size),))
    return mappings


def _check_catalog(catalog: PathCatalog, net: EdgeNetwork) -> None:
    """ValidationError unless ``catalog`` covers ``net``'s server count. Only
    the count is compared: the catalog of another network with as many
    servers goes undetected."""
    if len(catalog.path_count) != net.n_servers:
        raise ValidationError(
            f"the catalog covers {len(catalog.path_count)} servers but the network has "
            f"{net.n_servers}"
        )


def _processing_table(dag: AugmentedDag, net: EdgeNetwork) -> np.ndarray:
    """F x n seconds: row k is function k (stored order) on each server,
    ``flops / psi`` (the collector's 0), the table every embedder reads."""
    return dag._weights[0][:, None] / np.array([s.psi for s in net.servers])


def _source(column: np.ndarray, proc: float) -> int:
    """The source server of a stream whose consumer runs on server n, given
    column[m] = finish[fi][m] + transit(m, n) and proc = proc(f_j, n): the
    smallest m minimizing fl(column[m] + proc), the per-source sum the
    consumer's finish rounds to."""
    return int((column + proc).argmin())


@np.errstate(over="ignore")  # a finish past the float range is inf, as in heft
def _forward(dag: AugmentedDag, net: EdgeNetwork, catalog: PathCatalog, split: bool, ready):
    """The DP's forward pass. With ``split`` a stream of s bits from server m
    to server n takes s / ``catalog.inv_coeff_sum[m, n]`` seconds, spread over
    all paths of the pair; without it, s * ``cheapest_coefficient[m, n]``
    seconds, sent whole over the pair's cheapest path.

    Visits every function in stored topological order. An entry's row is its
    processing time plus the server's ready time; any other row is the slowest
    over its inputs of one min-plus step per uncommitted predecessor, plus its
    processing time. One array call prices every stream as an n x n block from
    m (row) to n (column), in the loop's order (stored function order, then
    the ascending source ids of ``dag.stream_table``). Processing is added
    once per row, not per source: under round-to-nearest x -> fl(x + p) is
    monotone, so min_m fl(x_m + p) = fl(min_m x_m + p), the same holds for
    max, and a nan propagates on both sides; every finish time is the float
    the per-source sums give. The commit-once rule pins a predecessor feeding
    more than one function to the source it used at the committing row's best
    destination c; its arrival is then row c of its min-plus block, equal to a
    recompute under that commitment. Other picks are resolved in the pointer
    walk backward from the best collector placement (``_walk``). Both compare
    the per-source sums, so the smallest source server id wins ties, also
    those that rounding creates when processing is added (``_source``). The
    state is the finish rows, the commitments and the priced array: an
    uncommitted input's sums overwrite its block, where the walk reads them.
    Returns ``(finish, committed, priced, procs)``: the state and the
    processing table.
    """
    ready_row = np.array(_ready_row(net, ready))
    procs = _processing_table(dag, net)
    inputs, consumers = dag.stream_table
    bits = dag._weights[1][:, None, None]
    priced = bits / catalog.inv_coeff_sum if split else bits * catalog.cheapest_coefficient
    blocks = iter(priced)
    # per function id: its finish row, and a fan-out function's server
    finish: list[np.ndarray | None] = [None] * len(procs)
    committed: list[int | None] = [None] * len(procs)

    for node, proc in zip(dag.functions, procs):
        fj = node.id
        if not inputs[fj]:
            finish[fj] = proc + ready_row
            continue
        arrivals: list[np.ndarray] = []
        fanout: list[tuple[int, int, np.ndarray]] = []  # (input index, fi, sums) to commit
        for fi, _ in inputs[fj]:
            block = next(blocks)
            c = committed[fi]
            if c is None:
                sums = np.add(finish[fi][:, None], block, out=block)
                if consumers[fi] >= 2:
                    fanout.append((len(arrivals), fi, sums))
                arrivals.append(np.minimum.reduce(sums))  # over axis 0
            else:
                arrivals.append(finish[fi][c] + block[c])
        row = functools.reduce(np.maximum, arrivals) + proc
        if fanout:
            n_hat = int(row.argmin())
            for k, fi, sums in fanout:
                c = committed[fi] = _source(sums[:, n_hat], proc[n_hat])
                arrivals[k] = sums[c]
            row = functools.reduce(np.maximum, arrivals) + proc
        finish[fj] = row
    return finish, committed, priced, procs


@np.errstate(over="ignore")  # _source's per-source sums may pass the float range
def _walk(dag: AugmentedDag, finish, committed, priced, procs) -> dict[int, int]:
    """The placements read from what ``_forward`` returns, by the pointer
    walk backward from the collector's best server."""
    inputs = dag.stream_table[0]
    # Reverse topological order places a function before its in-edges are
    # resolved, and k steps back by its input count to its first block. A
    # fan-out input holds its committed server at every consumer and any
    # other input has one consumer, so no placement is ever assigned twice
    # with different servers.
    placements: dict[int, int] = {dag.dummy_id: int(finish[dag.dummy_id].argmin())}
    k = len(priced)
    for node, proc in zip(reversed(dag.functions), procs[::-1]):
        n = placements[node.id]
        k -= len(inputs[node.id])
        for i, (fi, _) in enumerate(inputs[node.id], k):
            c = committed[fi]
            placements[fi] = _source(priced[i, :, n], proc[n]) if c is None else c
    return placements


def _dynamic_embed(
    dag: AugmentedDag, net: EdgeNetwork, catalog: PathCatalog, split: bool, ready
) -> EmbeddingResult:
    """Shared DP driver: ``_forward``, then ``_walk``. Returns the embedding,
    its streams mapped by ``_map_streams`` under the same ``split``."""
    _check_catalog(catalog, net)
    finish, committed, priced, procs = _forward(dag, net, catalog, split, ready)
    placements = _walk(dag, finish, committed, priced, procs)
    finish_times = {f.id: float(finish[f.id][placements[f.id]]) for f in dag.functions}
    return EmbeddingResult(
        placements=placements,
        edge_mappings=_map_streams(dag, placements, catalog, split),
        finish_times=finish_times,
        makespan=finish_times[dag.dummy_id],
    )


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
    return _dynamic_embed(dag, net, catalog, True, ready)


def brute_force_embed(
    dag: AugmentedDag,
    net: EdgeNetwork,
    catalog: PathCatalog,
    ready=None,
) -> EmbeddingResult:
    """Exhaustive optimum over every placement vector (streams still split
    optimally per edge, which is closed-form and independent per edge).

    Ties are broken toward the lexicographically smallest placement vector
    in stored function order. Guarded by ``EXHAUSTIVE_LIMIT`` on the
    number of placement vectors.
    """
    _check_catalog(catalog, net)
    n, q = net.n_servers, len(dag.functions)
    if (count := n**q) > EXHAUSTIVE_LIMIT:
        shown = count if count < 10**100 else f"{n}**{q}"  # int's str stops at 4,300 digits
        raise EdgeEmbedError(
            f"{shown} placement vectors exceed the exhaustive-search limit of {EXHAUSTIVE_LIMIT}"
        )

    proc = _processing_table(dag, net).tolist()
    # transit_factor[m][n]: seconds per bit between servers m and n (1/inf
    # is 0.0 on the diagonal).
    transit_factor = (1.0 / catalog.inv_coeff_sum).tolist()
    ready_row = _ready_row(net, ready)
    # per stored position: its inputs as (source position, stream bits)
    streams_in, position = dag.stream_table[0], dag.position
    pred_rows = [[(position[fi], bits) for fi, bits in streams_in[f.id]] for f in dag.functions]

    best_value = float("inf")
    best_vector = (0,) * q
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

    placements = {f.id: best_vector[k] for k, f in enumerate(dag.functions)}
    mappings = _map_streams(dag, placements, catalog, True)
    finish_times, makespan = simulate_embedding(dag, net, placements, mappings, ready)
    return EmbeddingResult(placements, mappings, finish_times, makespan)


def simulate_embedding(
    dag: AugmentedDag,
    net: EdgeNetwork,
    placements: dict[int, int],
    edge_mappings: dict[tuple[int, int], EdgeMapping],
    ready=None,
) -> tuple[dict[int, float], float]:
    """Replay a fixed embedding through the finish-time recurrence.

    Routing times are re-derived from the placements, the mapped paths and
    the raw link throughputs, independent of any catalog aggregates, so this
    is the self-consistency oracle for every producer; sources are read from
    ``dag.stream_table``. A stream between two servers waits for its slowest
    path (ValueError if it has none); a path's coefficient sums per-call
    inverse link throughputs left to right, as the path listing does.
    """
    inverse = [1.0 / link.throughput for link in net.links]
    psi = [s.psi for s in net.servers]
    ready_row = _ready_row(net, ready)
    inputs = dag.stream_table[0]
    finish: dict[int, float] = {}
    for node in dag.functions:
        fid = node.id
        server = placements[fid]
        proc = float(node.flops) / psi[server]  # not the shared table: an independent check
        if not inputs[fid]:
            finish[fid] = proc + ready_row[server]
            continue
        slowest_input = 0.0
        for fi, _ in inputs[fid]:
            if placements[fi] == server:
                transit = 0.0
            else:
                mapping = edge_mappings[(fi, fid)]
                branch_times = []
                for p, z in zip(mapping.paths, mapping.allocations):
                    coefficient = 0.0
                    for link_id in p.link_ids:
                        coefficient += inverse[link_id]
                    branch_times.append(coefficient * z)
                transit = max(branch_times)  # no path: ValueError
            arrive = finish[fi] + transit
            if arrive > slowest_input:
                slowest_input = arrive
        finish[fid] = slowest_input + proc
    return finish, finish[dag.dummy_id]


def embedding_to_json(result: EmbeddingResult) -> dict:
    """Plain-dict rendering of an embedding for the CLI and reports."""
    edges = [
        {
            "src": src,
            "dst": dst,
            "same_server": mapping.same_server,
            "paths": [list(p.nodes) for p in mapping.paths],
            "z": list(mapping.allocations),
        }
        for (src, dst), mapping in sorted(result.edge_mappings.items())
    ]
    return {
        "placements": {str(f): s for f, s in sorted(result.placements.items())},
        "edges": edges,
        "finish_times": {str(f): t for f, t in sorted(result.finish_times.items())},
        "makespan": result.makespan,
    }
