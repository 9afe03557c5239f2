"""Core data model: edge networks, workload DAGs, and augmentation.

A network is an undirected graph of servers joined by links with symmetric
throughput. A workload is a DAG of functions joined by data streams, stored
in topological order. Before embedding, a workload is augmented with a
zero-work collector tail that every destination function feeds, so that a
single finish time defines the makespan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .errors import SchemaError, ValidationError


@dataclass(frozen=True)
class Server:
    """A compute server with processing power ``psi`` in flop/s."""

    id: int
    psi: float


@dataclass(frozen=True)
class Link:
    """An undirected link; ``throughput`` is in bit/s, same both ways."""

    id: int
    u: int
    v: int
    throughput: float


@dataclass(frozen=True)
class FunctionNode:
    """One function of a workload; ``flops`` is its compute demand."""

    id: int
    flops: float
    is_dummy: bool = False


@dataclass(frozen=True)
class StreamEdge:
    """A data stream of ``size`` bits from function ``src`` to ``dst``."""

    src: int
    dst: int
    size: float


@dataclass(frozen=True)
class EdgeNetwork:
    """An immutable server graph with a precomputed adjacency table.

    ``adjacency`` maps a server id to ``((neighbor, link_id), ...)`` sorted
    by neighbor id, which fixes the traversal order everywhere.
    """

    servers: tuple[Server, ...]
    links: tuple[Link, ...]
    adjacency: dict[int, tuple[tuple[int, int], ...]] = field(repr=False)

    @property
    def n_servers(self) -> int:
        return len(self.servers)


def make_network(servers: Iterable[Server], links: Iterable[Link]) -> EdgeNetwork:
    """Build an EdgeNetwork and its adjacency table. Does not validate."""
    servers = tuple(servers)
    links = tuple(links)
    adj: dict[int, list[tuple[int, int]]] = {s.id: [] for s in servers}
    for link in links:
        if link.u in adj and link.v in adj:
            adj[link.u].append((link.v, link.id))
            adj[link.v].append((link.u, link.id))
    frozen = {node: tuple(sorted(nbrs)) for node, nbrs in adj.items()}
    return EdgeNetwork(servers=servers, links=links, adjacency=frozen)


def _require_finite(what: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")


def _require_positive(what: str, value: float, unit: str = "") -> None:
    if value <= 0:
        raise ValidationError(f"{what} must be > 0{unit}, got {value!r}")


def _require_rate(what: str, value: float) -> None:
    """A speed or throughput: finite, > 0, and with a finite reciprocal."""
    _require_finite(what, value)
    _require_positive(what, value)
    if not math.isfinite(1.0 / value):
        raise ValidationError(
            f"{what} is too small, got {value!r}: 1/{value!r} overflows"
        )


def validate_network(net: EdgeNetwork) -> None:
    """Check every network invariant; raises ValidationError.

    Invariants: dense 0-based ids, finite positive parameters with finite
    reciprocals, distinct link endpoints, at most one link per server pair,
    and every server reachable from server 0.
    """
    if not net.servers:
        raise ValidationError("network has no servers")
    for index, server in enumerate(net.servers):
        if server.id != index:
            raise ValidationError(
                f"server ids must be dense and ordered; position {index} "
                f"holds id {server.id}"
            )
        _require_rate(f"server {server.id} psi", server.psi)
    n = len(net.servers)
    seen_pairs: set[tuple[int, int]] = set()
    for index, link in enumerate(net.links):
        if link.id != index:
            raise ValidationError(
                f"link ids must be dense and ordered; position {index} "
                f"holds id {link.id}"
            )
        if not (0 <= link.u < n and 0 <= link.v < n):
            raise ValidationError(
                f"link {link.id} references unknown server "
                f"({link.u}, {link.v})"
            )
        if link.u == link.v:
            raise ValidationError(f"link {link.id} is a self-loop on server {link.u}")
        _require_rate(f"link {link.id} throughput", link.throughput)
        pair = (min(link.u, link.v), max(link.u, link.v))
        if pair in seen_pairs:
            raise ValidationError(
                f"more than one link between servers {pair[0]} and {pair[1]}"
            )
        seen_pairs.add(pair)
    # Reachability from server 0 by breadth-first search.
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for neighbor, _ in net.adjacency[node]:
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append(neighbor)
    for server in net.servers:
        if server.id not in reached:
            raise ValidationError(f"server {server.id} is unreachable from server 0")


@dataclass(frozen=True)
class WorkloadDag:
    """A function DAG; the ``functions`` tuple is the topological order."""

    functions: tuple[FunctionNode, ...]
    edges: tuple[StreamEdge, ...]

    @cached_property
    def position(self) -> dict[int, int]:
        """Function id -> index in the stored topological order."""
        return {f.id: i for i, f in enumerate(self.functions)}

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {f.id: [] for f in self.functions}
        for e in self.edges:
            out[e.src].append(e.dst)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    @cached_property
    def predecessors(self) -> dict[int, tuple[int, ...]]:
        inc: dict[int, list[int]] = {f.id: [] for f in self.functions}
        for e in self.edges:
            inc[e.dst].append(e.src)
        return {k: tuple(sorted(v)) for k, v in inc.items()}

    @cached_property
    def destination_ids(self) -> tuple[int, ...]:
        return tuple(f.id for f in self.functions if not self.successors[f.id])


def validate_dag(dag: WorkloadDag) -> None:
    """Check every workload invariant; raises ValidationError."""
    if not dag.functions:
        raise ValidationError("workload has no functions")
    ids = [f.id for f in dag.functions]
    if sorted(ids) != list(range(len(ids))):
        raise ValidationError(
            f"function ids must be dense 0-based integers, got {sorted(ids)}"
        )
    for f in dag.functions:
        _require_finite(f"function {f.id} flops", f.flops)
        if f.flops < 0:
            raise ValidationError(f"function {f.id} has negative flops")
        if f.is_dummy and f.flops != 0:
            raise ValidationError(f"collector function {f.id} must have 0 flops")
    position = dag.position
    seen_edges: set[tuple[int, int]] = set()
    for e in dag.edges:
        if e.src not in position or e.dst not in position:
            raise ValidationError(
                f"edge {e.src}->{e.dst} references an unknown function"
            )
        _require_finite(f"stream {e.src}->{e.dst} bits", e.size)
        _require_positive(f"stream {e.src}->{e.dst}", e.size, " bits")
        key = (e.src, e.dst)
        if key in seen_edges:
            raise ValidationError(f"more than one stream edge from {e.src} to {e.dst}")
        seen_edges.add(key)
    _check_acyclic(dag)
    for e in dag.edges:
        if position[e.src] >= position[e.dst]:
            raise ValidationError(
                f"edge {e.src}->{e.dst} runs against the stored function order"
            )


def _cycle_error(cycle: list[int]) -> ValidationError:
    chain = " -> ".join(str(f) for f in cycle)
    return ValidationError(f"workload edges form a cycle: {chain}")


def _check_acyclic(dag: WorkloadDag) -> None:
    """Depth-first cycle detection independent of the stored order."""
    out: dict[int, list[int]] = {f.id: [] for f in dag.functions}
    for e in dag.edges:
        if e.src == e.dst:
            raise _cycle_error([e.src, e.dst])
        out[e.src].append(e.dst)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {f.id: WHITE for f in dag.functions}
    stack: list[int] = []

    def visit(node: int) -> None:
        color[node] = GRAY
        stack.append(node)
        for succ in out[node]:
            if color[succ] == GRAY:
                raise _cycle_error(stack[stack.index(succ):] + [succ])
            if color[succ] == WHITE:
                visit(succ)
        stack.pop()
        color[node] = BLACK

    for f in dag.functions:
        if color[f.id] == WHITE:
            visit(f.id)


@dataclass(frozen=True)
class AugmentedDag:
    """A workload plus the zero-work collector that closes the DAG.

    The collector (``dummy_id``) receives one edge from every destination
    function, weighted with that destination's output size, and costs
    nothing to run anywhere. Its finish time is the makespan.
    """

    base: WorkloadDag
    dummy_id: int
    dummy_edges: tuple[StreamEdge, ...]

    @cached_property
    def functions(self) -> tuple[FunctionNode, ...]:
        tail = FunctionNode(id=self.dummy_id, flops=0.0, is_dummy=True)
        return self.base.functions + (tail,)

    @cached_property
    def edges(self) -> tuple[StreamEdge, ...]:
        return self.base.edges + self.dummy_edges

    @cached_property
    def by_id(self) -> dict[int, FunctionNode]:
        return {f.id: f for f in self.functions}

    @cached_property
    def position(self) -> dict[int, int]:
        return {f.id: i for i, f in enumerate(self.functions)}

    @cached_property
    def stream_size(self) -> dict[tuple[int, int], float]:
        return {(e.src, e.dst): e.size for e in self.edges}

    @cached_property
    def predecessors(self) -> dict[int, tuple[int, ...]]:
        inc: dict[int, list[int]] = {f.id: [] for f in self.functions}
        for e in self.edges:
            inc[e.dst].append(e.src)
        return {k: tuple(sorted(v)) for k, v in inc.items()}

    @cached_property
    def out_degree(self) -> dict[int, int]:
        deg = {f.id: 0 for f in self.functions}
        for e in self.edges:
            deg[e.src] += 1
        return deg


def augment_dummy_tail(
    dag: WorkloadDag, dst_out_sizes: Mapping[int, float]
) -> AugmentedDag:
    """Append the collector tail fed by every destination function.

    ``dst_out_sizes`` must cover exactly the destination set with finite
    positive bit counts. A workload whose destination already has zero
    flops looks like an augmented one and is rejected.
    """
    validate_dag(dag)
    destinations = dag.destination_ids
    for d in destinations:
        node = dag.functions[dag.position[d]]
        if node.flops == 0:
            raise ValidationError(
                f"destination {d} has zero flops; workload appears to "
                "carry a collector tail already"
            )
    missing = sorted(set(destinations) - set(dst_out_sizes))
    unexpected = sorted(set(dst_out_sizes) - set(destinations))
    parts = []
    if missing:
        parts.append(f"missing sizes for destinations {missing}")
    if unexpected:
        parts.append(f"sizes given for non-destinations {unexpected}")
    if parts:
        raise ValidationError("; ".join(parts))
    for d in destinations:
        _require_finite(f"output of destination {d}", dst_out_sizes[d])
        _require_positive(f"output of destination {d}", dst_out_sizes[d], " bits")
    dummy_id = len(dag.functions)
    dummy_edges = tuple(
        StreamEdge(src=d, dst=dummy_id, size=float(dst_out_sizes[d]))
        for d in sorted(destinations)
    )
    return AugmentedDag(base=dag, dummy_id=dummy_id, dummy_edges=dummy_edges)


def processing_time(function: FunctionNode, server: Server) -> float:
    """Seconds to run ``function`` on ``server``; the collector costs 0."""
    if function.is_dummy:
        return 0.0
    return function.flops / server.psi


def validate_time_range(
    dag: AugmentedDag, net: EdgeNetwork, ready: Mapping[int, float] | None = None
) -> None:
    """Reject a workload whose finish times on ``net`` leave the float range.

    No finish time exceeds the latest ready time plus every function run on
    the slowest server plus every stream sent whole down a route over every
    link, and no makespan is shorter than the largest function run on the
    fastest server. A finite upper bound and a positive lower bound keep
    every time an embedder derives finite and every makespan > 0.
    """
    speeds = [s.psi for s in net.servers]
    route = sum(1.0 / link.throughput for link in net.links)
    upper = (
        max([0.0, *(ready or {}).values()])
        + sum(f.flops for f in dag.functions) / min(speeds)
        + sum(e.size for e in dag.edges) * route
    )
    if not math.isfinite(upper):
        raise ValidationError(
            "finish times overflow: the workload's flops and bits are too "
            "large for this network's speeds and throughputs"
        )
    if max(f.flops for f in dag.functions) / max(speeds) == 0.0:
        raise ValidationError(
            "finish times underflow: every function of the workload runs in "
            "0 s on this network's fastest server"
        )


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def network_from_json(obj: Mapping) -> EdgeNetwork:
    """Parse and validate ``{"servers": [...], "links": [...]}``."""
    try:
        servers = tuple(
            Server(id=int(s["id"]), psi=float(s["psi"])) for s in obj["servers"]
        )
        links = tuple(
            Link(
                id=int(l["id"]),
                u=int(l["u"]),
                v=int(l["v"]),
                throughput=float(l["b"]),
            )
            for l in obj["links"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed network document: {exc}") from exc
    net = make_network(servers, links)
    validate_network(net)
    return net


def network_to_json(net: EdgeNetwork) -> dict:
    return {
        "servers": [{"id": s.id, "psi": s.psi} for s in net.servers],
        "links": [
            {"id": l.id, "u": l.u, "v": l.v, "b": l.throughput}
            for l in net.links
        ],
    }


def dag_from_json(obj: Mapping) -> tuple[WorkloadDag, dict[int, float]]:
    """Parse and validate one workload document.

    Returns the DAG plus the destination output sizes used to weight the
    collector edges at augmentation time.
    """
    try:
        functions = tuple(
            FunctionNode(id=int(f["id"]), flops=float(f["flops"]))
            for f in obj["functions"]
        )
        edges = tuple(
            StreamEdge(src=int(e["src"]), dst=int(e["dst"]), size=float(e["bits"]))
            for e in obj["edges"]
        )
        dst_out = {int(k): float(v) for k, v in obj["dst_out"].items()}
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise SchemaError(f"malformed workload document: {exc}") from exc
    dag = WorkloadDag(functions=functions, edges=edges)
    validate_dag(dag)
    return dag, dst_out


def dag_to_json(dag: WorkloadDag, dst_out: Mapping[int, float]) -> dict:
    return {
        "functions": [{"id": f.id, "flops": f.flops} for f in dag.functions],
        "edges": [
            {"src": e.src, "dst": e.dst, "bits": e.size} for e in dag.edges
        ],
        "dst_out": {str(k): float(dst_out[k]) for k in sorted(dst_out)},
    }


def canonical_json(obj) -> str:
    """Stable serialization used for fingerprints and report files."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
