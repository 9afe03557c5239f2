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
from dataclasses import FrozenInstanceError, dataclass, field, fields
from graphlib import CycleError, TopologicalSorter
from numbers import Integral, Real
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError

_FLOAT_MAX = sys.float_info.max  # the largest finite float


def _record(cls):
    """``dataclass(frozen=True, slots=True)``, but every attribute write or delete raises
    FrozenInstanceError: Python 3.11's own pair let a non-field name end in TypeError."""
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_record
class Server:
    """A compute server with processing power ``psi`` in flop/s."""

    id: int
    psi: float


@_record
class Link:
    """An undirected link; ``throughput`` is in bit/s, same both ways."""

    id: int
    u: int
    v: int
    throughput: float


@_record
class FunctionNode:
    """One function of a workload; ``flops`` is its compute demand."""

    id: int
    flops: float


@_record
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


def _within_floats(value) -> bool:
    """``abs(value) <= _FLOAT_MAX`` for a real ``value``, exact on ints and
    ``Fraction``s. A numpy float16 or float32 is widened first: NEP 50 casts
    the bound to its type, which overflows with a RuntimeWarning."""
    if isinstance(value, (np.float16, np.float32)):
        value = float(value)
    return abs(value) <= _FLOAT_MAX


def _require_finite(what: str, value: float) -> None:
    if not (_is_real(value) and _within_floats(value)):
        raise ValidationError(f"{what} must be finite, got {_shown(value)}")


def _require_positive(what: str, value: float, unit: str = "") -> None:
    if value <= 0:
        raise ValidationError(f"{what} must be > 0{unit}, got {value!r}")


def _require_rate(what: str, value: float) -> None:
    """A speed or throughput: finite, > 0, and with a finite reciprocal."""
    _require_finite(what, value)
    _require_positive(what, value)
    rate = float(value)  # a float32's 1/x would warn of overflow; a tiny Fraction is 0.0
    if rate == 0.0 or not math.isfinite(1.0 / rate):
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


def validate_dag(dag: WorkloadDag) -> None:
    """Check every workload invariant; raises ValidationError."""
    _stream_index(dag)


def _stream_index(dag: WorkloadDag) -> tuple:
    """``validate_dag``, returning from its pass over ``edges`` the tables it alone
    builds, ``(inputs, consumers, stream_keys, position)``. Caches nothing on ``dag``."""
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
    position = dict(zip(ids, dense))
    inputs: list[list[tuple[int, float]]] = [[] for _ in ids]
    consumers = [0] * len(ids)
    keys: dict[tuple[int, int], None] = {}  # insertion-ordered, and finds repeats
    against = None  # the first edge that runs against the stored order
    for e in dag.edges:
        src, dst, size = e.src, e.dst, e.size
        ends = type(src) is type(dst) is int or _is_integer(src) and _is_integer(dst)
        if not (ends and src in position and dst in position):
            raise ValidationError(
                f"edge {_shown(src)}->{_shown(dst)} references an unknown function"
            )
        if not (type(size) is float and 0.0 < size <= _FLOAT_MAX):
            _require_finite(f"stream {src}->{dst} bits", size)
            _require_positive(f"stream {src}->{dst}", size, " bits")
        key = (src, dst)
        if key in keys:
            raise ValidationError(f"more than one stream edge from {src} to {dst}")
        keys[key] = None
        inputs[dst].append((src, size))
        consumers[src] += 1
        if against is None and position[src] >= position[dst]:
            against = e
    if against is not None:
        # every cycle has such an edge, and its witness is reported first
        _check_acyclic(dag)
        raise ValidationError(
            f"edge {against.src}->{against.dst} runs against the stored function order"
        )
    for row in inputs:
        row.sort()  # sources are distinct, so bits never compare
    return inputs, consumers, tuple(keys), position


def _check_acyclic(dag: WorkloadDag) -> None:
    """Raise ValidationError naming a cycle of ``dag``'s edges, if any: the
    first self-loop in ``edges`` order, else the first that ``graphlib``'s
    depth-first search meets from each function in stored order, along its
    streams out in ``edges`` order, on its own stack (no recursion limit)."""
    cycle = next(([e.src, e.dst] for e in dag.edges if e.src == e.dst), None)
    if cycle is None:
        sorter = TopologicalSorter()
        for f in dag.functions:
            sorter.add(f.id)
        for e in dag.edges:
            sorter.add(e.dst, e.src)
        try:
            sorter.prepare()
            return
        except CycleError as exc:
            cycle = exc.args[1]
    chain = " -> ".join(str(f) for f in cycle)
    raise ValidationError(f"workload edges form a cycle: {chain}")


@dataclass(frozen=True)
class AugmentedDag(WorkloadDag):
    """A workload whose last function is the collector that closes it.

    The collector (``dummy_id``) has 0 flops, so it costs nothing to run
    anywhere, and receives one edge from every destination function of the
    original workload, weighted with that destination's output size. Its
    finish time is the makespan. Only ``augment_dummy_tail`` builds one, and
    hands it the tables every embedder reads; they are shared, so read only.
    """

    # ``(inputs, consumers)`` by function id: f's streams in as ``(source id,
    # bits)`` by ascending source, and its count of streams out
    stream_table: tuple[list[list[tuple[int, float]]], list[int]] = field(
        repr=False, compare=False
    )
    # ``(src, dst)`` of every stream in ``edges`` order: its mapping's key in every embedding
    stream_keys: tuple[tuple[int, int], ...] = field(repr=False, compare=False)
    position: dict[int, int] = field(repr=False, compare=False)  # function id -> stored index
    # flops by stored position and stream bits in the DP's input order
    _weights: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

    def __post_init__(self):
        for vector in self._weights:
            vector.flags.writeable = False

    def __reduce__(self):
        # a copy or an unpickled DAG goes through __post_init__ too
        return AugmentedDag, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def dummy_id(self) -> int:
        return self.functions[-1].id


def _check_tail(dag: WorkloadDag, dst_out_sizes: Mapping) -> tuple[tuple, list[int]]:
    """The one tail rule: ``validate_dag``, then raise ValidationError unless
    ``dst_out_sizes`` gives each destination of ``dag`` (a function with no
    stream out), and no other function, a finite positive bit count, and no
    destination has 0 flops. Returns ``(index, destinations)``: validation's
    ``_stream_index`` of ``dag`` and its destinations in stored order."""
    index = _stream_index(dag)
    consumers = index[1]
    sinks = [f for f in dag.functions if not consumers[f.id]]  # stored order
    for f in sinks:
        if f.flops == 0:
            raise ValidationError(
                f"destination {f.id} has zero flops; workload appears to "
                "carry a collector tail already"
            )
    destinations = [f.id for f in sinks]
    # a key names a destination only as an integer: 1.0 and True equal 1, yet are no ids
    ids = [k for k in dst_out_sizes if type(k) is int or _is_integer(k)]
    missing = sorted(set(destinations).difference(ids))
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
    for d in destinations:
        out = dst_out_sizes[d]
        if not (type(out) is float and 0.0 < out <= _FLOAT_MAX):
            _require_finite(f"output of destination {d}", out)
            _require_positive(f"output of destination {d}", out, " bits")
    return index, destinations


def augment_dummy_tail(dag: WorkloadDag, dst_out_sizes: Mapping[int, float]) -> AugmentedDag:
    """Append the collector tail fed by every destination function.

    ``dst_out_sizes`` must cover exactly the destination set with finite
    positive bit counts. A workload whose destination already has zero
    flops looks like an augmented one and is rejected. The result carries
    validation's stream index of ``dag``, extended by the collector, and its
    weight vectors, so that no embedder builds them.
    """
    (inputs, consumers, keys, position), destinations = _check_tail(dag, dst_out_sizes)
    cid = len(dag.functions)
    position[cid] = cid
    row = [(d, float(dst_out_sizes[d])) for d in sorted(destinations)]  # the collector's inputs
    inputs.append(row)
    functions = dag.functions + (FunctionNode(cid, 0.0),)
    return AugmentedDag(
        functions=functions,
        edges=dag.edges + tuple([StreamEdge(d, cid, size) for d, size in row]),
        # each destination feeds the collector once
        stream_table=(inputs, [c or 1 for c in consumers] + [0]),
        stream_keys=keys + tuple([(d, cid) for d, _ in row]),
        position=position,
        _weights=(
            np.array([f.flops for f in functions]),
            np.array([size for f in functions for _, size in inputs[f.id]]),
        ),
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
        if not (
            type(seconds) is float and 0.0 <= seconds <= _FLOAT_MAX
            or _is_real(seconds) and 0.0 <= seconds and _within_floats(seconds)
        ):
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
    """One network document, ids as ints and weights as floats; raises
    ValidationError for a network that ``network_from_json`` would reject."""
    validate_network(net)
    return {
        "servers": [{"id": int(s.id), "psi": float(s.psi)} for s in net.servers],
        "links": [
            {"id": int(l.id), "u": int(l.u), "v": int(l.v), "b": float(l.throughput)}
            for l in net.links
        ],
    }


def dag_from_json(obj: Mapping) -> tuple[WorkloadDag, dict[int, float]]:
    """Parse and validate one workload document, accepted exactly when
    ``augment_dummy_tail`` accepts its parse.

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
    _check_tail(dag, dst_out)
    return dag, dst_out


def dag_to_json(dag: WorkloadDag, dst_out: Mapping[int, float]) -> dict:
    """One workload document, ids as ints and weights as floats; raises
    ValidationError, with ``dag_from_json``'s message, for a DAG and output
    sizes that it would reject."""
    _check_tail(dag, dst_out)
    return {
        "functions": [{"id": int(f.id), "flops": float(f.flops)} for f in dag.functions],
        "edges": [
            {"src": int(e.src), "dst": int(e.dst), "bits": float(e.size)} for e in dag.edges
        ],
        "dst_out": {str(int(k)): float(dst_out[k]) for k in sorted(dst_out)},
    }


def canonical_json(obj) -> str:
    """Stable serialization used for fingerprints and report files."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
