"""Core data model: edge networks, workload DAGs, and augmentation.

A network is an undirected graph of servers joined by links with symmetric
throughput. A workload is a DAG of functions joined by data streams, stored
in topological order. Before embedding, a workload is augmented: the result
is again a ``WorkloadDag``, whose last function is a 0-flop collector that
every destination function feeds, so that a single finish time (the
collector's) defines the makespan.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from typing import Iterable, Mapping

from .errors import ValidationError

_FLOAT_MAX = sys.float_info.max  # the largest finite float


@dataclass(frozen=True, slots=True)
class Server:
    """A compute server with processing power ``psi`` in flop/s."""

    id: int
    psi: float


@dataclass(frozen=True, slots=True)
class Link:
    """An undirected link; ``throughput`` is in bit/s, same both ways."""

    id: int
    u: int
    v: int
    throughput: float


@dataclass(frozen=True, slots=True)
class FunctionNode:
    """One function of a workload; ``flops`` is its compute demand."""

    id: int
    flops: float


@dataclass(frozen=True, slots=True)
class StreamEdge:
    """A data stream of ``size`` bits from function ``src`` to ``dst``."""

    src: int
    dst: int
    size: float


@dataclass(frozen=True)
class EdgeNetwork:
    """An immutable server graph: its servers and its links."""

    servers: tuple[Server, ...]
    links: tuple[Link, ...]

    @property
    def n_servers(self) -> int:
        return len(self.servers)


def _is_integer(value) -> bool:
    """The package's one test of an integer, such as an id: a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """The package's one test of a real number, such as a weight: a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool)


def make_network(servers: Iterable[Server], links: Iterable[Link]) -> EdgeNetwork:
    """Build an EdgeNetwork from its servers and links. Does not validate."""
    return EdgeNetwork(servers=tuple(servers), links=tuple(links))


def _shown(value) -> str:
    """``repr(value)`` for an error message, but an int past the float range
    is named, not formatted: Python formats at most 4,300 digits of an int."""
    if isinstance(value, Integral) and not abs(value) <= _FLOAT_MAX:
        return "an int past the float range"
    try:
        return repr(value)
    except ValueError:  # a container holding such an int
        return f"a {type(value).__name__} holding an int past the float range"


def _require_finite(what: str, value: float) -> None:
    if not (_is_real(value) and abs(value) <= _FLOAT_MAX):  # exact on ints
        raise ValidationError(f"{what} must be finite, got {_shown(value)}")


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


def _sum_left(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, one rounding per term:
    builtin ``sum`` on Python 3.10 and 3.11, bit for bit. From 3.12 ``sum``
    compensates float error, so every float total an embedding or a report
    reads is taken here, to give the same bits on every Python."""
    total = 0.0
    for x in values:
        total += x
    return total


def _reached_from_0(n: int, pairs: Iterable[tuple[int, int]]) -> set[int]:
    """The servers of 0..n-1 that links ``pairs`` join to server 0."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    reached = {0}
    frontier = [0]
    while frontier:
        for neighbor in adj[frontier.pop()]:
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append(neighbor)
    return reached


def validate_network(net: EdgeNetwork) -> None:
    """Check every network invariant; raises ValidationError.

    Invariants: dense 0-based ids, finite positive parameters with finite
    reciprocals, distinct link endpoints, at most one link per server pair,
    and every server reachable from server 0.
    """
    if not net.servers:
        raise ValidationError("network has no servers")
    for index, server in enumerate(net.servers):
        if not (_is_integer(server.id) and server.id == index):
            raise ValidationError(
                f"server ids must be dense and ordered; position {index} "
                f"holds id {_shown(server.id)}"
            )
        _require_rate(f"server {server.id} psi", server.psi)
    n = len(net.servers)
    seen_pairs: set[tuple[int, int]] = set()
    for index, link in enumerate(net.links):
        if not (_is_integer(link.id) and link.id == index):
            raise ValidationError(
                f"link ids must be dense and ordered; position {index} "
                f"holds id {_shown(link.id)}"
            )
        if not all(_is_integer(end) and 0 <= end < n for end in (link.u, link.v)):
            raise ValidationError(
                f"link {link.id} references unknown server ({_shown(link.u)}, {_shown(link.v)})"
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
    reached = _reached_from_0(n, ((link.u, link.v) for link in net.links))
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
    def stream_table(self) -> tuple[list[list[tuple[int, float]]], list[int]]:
        """``(inputs, consumers)`` by function id, from one pass over
        ``edges``: f's streams in as ``(source id, bits)``, ascending source
        id, and the count of f's streams out. Indexed by id, so ids must be
        dense and 0-based, as ``validate_dag`` requires. Shared: read only."""
        inputs: list[list[tuple[int, float]]] = [[] for _ in self.functions]
        consumers = [0] * len(self.functions)
        for e in self.edges:
            inputs[e.dst].append((e.src, e.size))
            consumers[e.src] += 1
        for row in inputs:
            row.sort()  # sources are distinct, so bits never compare
        return inputs, consumers

    @cached_property
    def stream_keys(self) -> tuple[tuple[int, int], ...]:
        """``(src, dst)`` of every stream, in ``edges`` order: the key of its
        mapping in every embedding of this DAG, so all embeddings share one
        key object per stream. Shared: read only."""
        return tuple((e.src, e.dst) for e in self.edges)

    @cached_property
    def destination_ids(self) -> tuple[int, ...]:
        sources = {e.src for e in self.edges}
        return tuple(f.id for f in self.functions if f.id not in sources)


def validate_dag(dag: WorkloadDag) -> None:
    """Check every workload invariant; raises ValidationError."""
    if not dag.functions:
        raise ValidationError("workload has no functions")
    ids = [f.id for f in dag.functions]
    # an int id or a float weight is tested once; a message is formatted only on failure
    odd = [i for i in ids if type(i) is not int and not _is_integer(i)]
    dense = list(range(len(ids)))
    if odd or ids != dense and sorted(ids) != dense:
        got = _shown(odd[0] if odd else sorted(ids))
        raise ValidationError(f"function ids must be dense 0-based integers, got {got}")
    for f in dag.functions:
        if not (type(f.flops) is float and 0.0 <= f.flops <= _FLOAT_MAX):
            _require_finite(f"function {f.id} flops", f.flops)
            if f.flops < 0:
                raise ValidationError(f"function {f.id} has negative flops")
    position = dag.position
    seen_edges: set[tuple[int, int]] = set()
    against = None  # the first edge that runs against the stored order
    for e in dag.edges:
        src, dst = e.src, e.dst
        ends = type(src) is type(dst) is int or _is_integer(src) and _is_integer(dst)
        if not (ends and src in position and dst in position):
            raise ValidationError(
                f"edge {_shown(src)}->{_shown(dst)} references an unknown function"
            )
        if not (type(e.size) is float and 0.0 < e.size <= _FLOAT_MAX):
            _require_finite(f"stream {src}->{dst} bits", e.size)
            _require_positive(f"stream {src}->{dst}", e.size, " bits")
        key = (src, dst)
        if key in seen_edges:
            raise ValidationError(f"more than one stream edge from {src} to {dst}")
        seen_edges.add(key)
        if against is None and position[src] >= position[dst]:
            against = e
    if against is not None:
        # every cycle has such an edge, and its witness is reported first
        _check_acyclic(dag)
        raise ValidationError(
            f"edge {against.src}->{against.dst} runs against the stored function order"
        )


def _cycle_error(cycle: list[int]) -> ValidationError:
    chain = " -> ".join(str(f) for f in cycle)
    return ValidationError(f"workload edges form a cycle: {chain}")


def _check_acyclic(dag: WorkloadDag) -> None:
    """Depth-first cycle detection independent of the stored order.

    The walk keeps its own stack, so a chain of any length stays clear of
    the interpreter's recursion limit.
    """
    out: dict[int, list[int]] = {f.id: [] for f in dag.functions}
    for e in dag.edges:
        if e.src == e.dst:
            raise _cycle_error([e.src, e.dst])
        out[e.src].append(e.dst)
    done: set[int] = set()
    for root in dag.functions:
        if root.id in done:
            continue
        # ``path`` is the current chain; ``pending`` holds an iterator over
        # the unvisited successors of each function on it.
        path = [root.id]
        on_path = {root.id}
        pending = [iter(out[root.id])]
        while pending:
            succ = next(pending[-1], None)
            if succ is None:
                pending.pop()
                node = path.pop()
                on_path.remove(node)
                done.add(node)
            elif succ in on_path:
                raise _cycle_error(path[path.index(succ):] + [succ])
            elif succ not in done:
                path.append(succ)
                on_path.add(succ)
                pending.append(iter(out[succ]))


@dataclass(frozen=True)
class AugmentedDag(WorkloadDag):
    """A workload whose last function is the collector that closes it.

    The collector (``dummy_id``) has 0 flops, so it costs nothing to run
    anywhere, and receives one edge from every destination function of the
    original workload, weighted with that destination's output size. Its
    finish time is the makespan.
    """

    @property
    def dummy_id(self) -> int:
        return self.functions[-1].id


def _check_outputs(dag: WorkloadDag, dst_out_sizes: Mapping[int, float]) -> None:
    """Raise ValidationError unless ``dst_out_sizes`` gives every destination
    of ``dag``, and no other function, a finite positive bit count."""
    destinations = set(dag.destination_ids)
    # a key names a destination only as an integer: 1.0 and True equal 1, yet are no ids
    ids = [k for k in dst_out_sizes if type(k) is int or _is_integer(k)]
    missing = sorted(destinations.difference(ids))
    # int keys ascending, then the others as given: keys of two types never compare
    unexpected = [k for k in dst_out_sizes if k not in destinations or k not in ids]
    unexpected.sort(key=lambda k: (0, k) if _is_integer(k) else (1, 0))
    parts = []
    if missing:
        parts.append(f"missing sizes for destinations {missing}")
    if unexpected:
        parts.append(f"sizes given for non-destinations {_shown(unexpected)}")
    if parts:
        raise ValidationError("; ".join(parts))
    for d in dag.destination_ids:
        out = dst_out_sizes[d]
        if not (type(out) is float and 0.0 < out <= _FLOAT_MAX):
            _require_finite(f"output of destination {d}", out)
            _require_positive(f"output of destination {d}", out, " bits")


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
        if dag.functions[dag.position[d]].flops == 0:
            raise ValidationError(
                f"destination {d} has zero flops; workload appears to "
                "carry a collector tail already"
            )
    _check_outputs(dag, dst_out_sizes)
    collector = FunctionNode(id=len(dag.functions), flops=0.0)
    collector_edges = tuple(
        StreamEdge(src=d, dst=collector.id, size=float(dst_out_sizes[d]))
        for d in sorted(destinations)
    )
    return AugmentedDag(
        functions=dag.functions + (collector,), edges=dag.edges + collector_edges
    )


def _ready_row(net: EdgeNetwork, ready: Mapping[int, float] | None) -> list[float]:
    """Ready seconds per server in id order, 0 for servers not named: the one
    reader of a ready map. Raises ValidationError for a map that is neither
    None nor a Mapping, a bool key or time, a key that is not a server id of
    ``net`` and a time not a real in [0, max float]."""
    row = [0.0] * net.n_servers
    # dict, int and float first: an ABC check costs several times more
    if not (ready is None or isinstance(ready, dict) or isinstance(ready, Mapping)):
        raise ValidationError(f"a ready map must be a mapping, got {type(ready).__name__}")
    for server, seconds in (ready or {}).items():
        if isinstance(server, bool) or isinstance(seconds, bool):
            shown = f"{_shown(server)}: {_shown(seconds)}"
            raise ValidationError(f"ready map entry {shown} holds a bool")
        if not ((type(server) is int or _is_integer(server)) and 0 <= server < len(row)):
            raise ValidationError(f"ready map names unknown server {_shown(server)}")
        if not ((type(seconds) is float or _is_real(seconds)) and 0.0 <= seconds <= _FLOAT_MAX):
            raise ValidationError(
                f"ready time of server {server} must be finite and >= 0, got {_shown(seconds)}"
            )
        row[server] = float(seconds)
    return row


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
    route = _sum_left(1.0 / link.throughput for link in net.links)
    upper = (
        max(_ready_row(net, ready))
        + _sum_left(f.flops for f in dag.functions) / min(speeds)
        + _sum_left(e.size for e in dag.edges) * route
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

def _json(value, kind: type):
    """``value`` as ``kind`` (int: a JSON integer, float: a JSON number), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise TypeError(f"{value!r} is not a JSON {'integer' if kind is int else 'number'}")
    return kind(value)


def _json_key(key) -> int:
    """An integer id spelled as a JSON object key: exactly ``str(id)``, else
    ValidationError (``int`` alone also reads "0_1", " +1 " and non-ASCII digits)."""
    try:
        value = int(key)
        if str(value) == key:
            return value
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"key {key!r} is not an integer id")


def network_from_json(obj: Mapping) -> EdgeNetwork:
    """Parse and validate ``{"servers": [...], "links": [...]}``."""
    try:
        servers = tuple(
            Server(id=_json(s["id"], int), psi=_json(s["psi"], float))
            for s in obj["servers"]
        )
        links = tuple(
            Link(
                id=_json(l["id"], int),
                u=_json(l["u"], int),
                v=_json(l["v"], int),
                throughput=_json(l["b"], float),
            )
            for l in obj["links"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed network document: {exc}") from exc
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
            FunctionNode(id=_json(f["id"], int), flops=_json(f["flops"], float))
            for f in obj["functions"]
        )
        edges = tuple(
            StreamEdge(_json(e["src"], int), _json(e["dst"], int), _json(e["bits"], float))
            for e in obj["edges"]
        )
        dst_out = {_json_key(k): _json(v, float) for k, v in obj["dst_out"].items()}
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ValidationError(f"malformed workload document: {exc}") from exc
    dag = WorkloadDag(functions=functions, edges=edges)
    validate_dag(dag)
    return dag, dst_out


def dag_to_json(dag: WorkloadDag, dst_out: Mapping[int, float]) -> dict:
    """One workload document; raises ValidationError for an invalid DAG and
    for output sizes that ``augment_dummy_tail`` would reject."""
    validate_dag(dag)
    _check_outputs(dag, dst_out)
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
