"""Data-model tests: validation, augmentation, timing, and JSON wire format."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import pathlib
import pickle
import random
import re
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

from edge_embed import (
    DagRecord,
    EdgeMapping,
    EmbeddingResult,
    FunctionNode,
    Link,
    Server,
    StreamEdge,
    ValidationError,
    WorkloadDag,
    WorkloadSpec,
    augment_dummy_tail,
    canonical_json,
    dag_from_json,
    dag_to_json,
    generate_dag_records,
    make_network,
    network_from_json,
    network_to_json,
    validate_dag,
    validate_network,
)
import edge_embed
from edge_embed import model, pathfind
from edge_embed.embedder import _processing_table

from conftest import chain_dag, complete_network, triangle_network


# ---------------------------------------------------------------------------
# network construction and validation
# ---------------------------------------------------------------------------


def test_make_network_builds_sorted_adjacency():
    # make_network keeps the tuples; the one traversal table is built from
    # the links: per server (neighbour, 1 / throughput, route bit, link id)
    # sorted by neighbour
    net = triangle_network()
    assert net.n_servers == 3
    assert pathfind._adjacency(net) == [
        ((1, 1.0, 0b010, 0), (2, 0.25, 0b100, 2)),
        ((0, 1.0, 0b001, 0), (2, 0.5, 0b100, 1)),
        ((0, 0.25, 0b001, 2), (1, 0.5, 0b010, 1)),
    ]
    # parallel links of an unvalidated network tie on the neighbour and go
    # in link id order, whatever their throughputs and listed order
    net = make_network(
        [Server(0, 1.0), Server(1, 1.0)],
        [Link(2, 0, 1, 2.0), Link(0, 0, 1, 1.0), Link(1, 1, 0, 4.0)],
    )
    assert pathfind._adjacency(net) == [
        ((1, 1.0, 0b10, 0), (1, 0.25, 0b10, 1), (1, 0.5, 0b10, 2)),
        ((0, 1.0, 0b01, 0), (0, 0.25, 0b01, 1), (0, 0.5, 0b01, 2)),
    ]


def test_validate_network_rejects_nonpositive_speed():
    net = make_network([Server(0, 0.0), Server(1, 1.0)], [Link(0, 0, 1, 1.0)])
    with pytest.raises(ValidationError, match=r"server 0 psi must be > 0, got 0\.0"):
        validate_network(net)


def test_validate_network_rejects_nonpositive_throughput():
    net = make_network([Server(0, 1.0), Server(1, 1.0)], [Link(0, 0, 1, -2.0)])
    with pytest.raises(
        ValidationError, match=r"link 0 throughput must be > 0, got -2\.0"
    ):
        validate_network(net)


@pytest.mark.parametrize(
    "servers, links, what",
    [
        ([Server(0, 1e-310), Server(1, 1.0)], [Link(0, 0, 1, 1.0)], "server 0 psi"),
        ([Server(0, 1.0), Server(1, 1.0)], [Link(0, 0, 1, 1e-310)], "link 0 throughput"),
    ],
)
def test_validate_network_rejects_overflowing_reciprocal(servers, links, what):
    with pytest.raises(ValidationError, match=f"{what} is too small"):
        validate_network(make_network(servers, links))


def test_validate_network_rejects_self_loop():
    net = make_network([Server(0, 1.0), Server(1, 1.0)], [Link(0, 0, 0, 1.0)])
    with pytest.raises(ValidationError, match="link 0 is a self-loop on server 0"):
        validate_network(net)


def test_validate_network_rejects_duplicate_pair():
    net = make_network(
        [Server(0, 1.0), Server(1, 1.0)],
        [Link(0, 0, 1, 1.0), Link(1, 1, 0, 2.0)],
    )
    with pytest.raises(
        ValidationError, match="more than one link between servers 0 and 1"
    ):
        validate_network(net)


def test_validate_network_names_unreachable_server():
    # 0-1 and 2-3 form two islands; BFS from 0 never reaches server 2.
    net = make_network(
        [Server(i, 1.0) for i in range(4)],
        [Link(0, 0, 1, 1.0), Link(1, 2, 3, 1.0)],
    )
    with pytest.raises(ValidationError, match=r"server [23] is unreachable"):
        validate_network(net)


def test_validate_network_rejects_sparse_ids():
    net = make_network([Server(0, 1.0), Server(2, 1.0)], [Link(0, 0, 2, 1.0)])
    with pytest.raises(ValidationError):
        validate_network(net)


def _functions(*ids):
    return tuple(FunctionNode(i, 1.0) for i in ids)


@pytest.mark.parametrize(
    "validate, subject, message",
    [
        (validate_network, make_network([], []), "^network has no servers$"),
        (
            validate_network,
            make_network([Server(0, 1.0), Server(1, 1.0)], [Link(1, 0, 1, 1.0)]),
            r"^link ids must be dense and ordered; position 0 holds id 1$",
        ),
        (
            validate_network,
            make_network([Server(0, 1.0), Server(1, 1.0)], [Link(0, 0, 5, 1.0)]),
            r"^link 0 references unknown server \(0, 5\)$",
        ),
        (validate_dag, WorkloadDag((), ()), "^workload has no functions$"),
        (
            validate_dag,
            WorkloadDag(_functions(0, 2), (StreamEdge(0, 2, 1.0),)),
            r"^function ids must be dense 0-based integers, got \[0, 2\]$",
        ),
        (
            validate_dag,
            WorkloadDag(_functions(0, 1), (StreamEdge(0, 5, 1.0),)),
            "^edge 0->5 references an unknown function$",
        ),
        (
            validate_dag,
            WorkloadDag(_functions(0, 1, 2), (StreamEdge(0, 1, 1.0), StreamEdge(1, 1, 1.0))),
            "^workload edges form a cycle: 1 -> 1$",
        ),
    ],
    ids=[
        "no-servers", "sparse-link-ids", "link-to-missing-server", "no-functions",
        "sparse-function-ids", "edge-to-unknown-function", "self-loop",
    ],
)
def test_structural_validator_messages(validate, subject, message):
    with pytest.raises(ValidationError, match=message):
        validate(subject)


# ---------------------------------------------------------------------------
# workload validation
# ---------------------------------------------------------------------------


def test_validate_dag_accepts_diamond():
    dag = WorkloadDag(
        functions=tuple(FunctionNode(i, 1.0) for i in range(4)),
        edges=(
            StreamEdge(0, 1, 1.0),
            StreamEdge(0, 2, 1.0),
            StreamEdge(1, 3, 1.0),
            StreamEdge(2, 3, 1.0),
        ),
    )
    validate_dag(dag)
    # the collector's row: 3 is the one destination
    assert augment_dummy_tail(dag, {3: 2.0}).stream_table == (
        [[], [(0, 1.0)], [(0, 1.0)], [(1, 1.0), (2, 1.0)], [(3, 2.0)]],
        [2, 1, 1, 1, 0],
    )


def test_validate_dag_rejects_cycle_with_witness():
    dag = WorkloadDag(
        functions=tuple(FunctionNode(i, 1.0) for i in range(3)),
        edges=(StreamEdge(0, 1, 1.0), StreamEdge(1, 2, 1.0), StreamEdge(2, 0, 1.0)),
    )
    with pytest.raises(ValidationError, match="workload edges form a cycle: ") as exc:
        validate_dag(dag)
    cycle = [int(f) for f in str(exc.value).split(": ")[1].split(" -> ")]
    # witness is a closed walk through the offending functions
    assert cycle[0] == cycle[-1]
    assert set(cycle) <= {0, 1, 2}


def test_validate_dag_order_violation_distinct_from_cycle():
    # acyclic, but the stored order lists the consumer before the producer
    dag = WorkloadDag(
        functions=(FunctionNode(0, 1.0), FunctionNode(1, 1.0)),
        edges=(StreamEdge(1, 0, 1.0),),
    )
    with pytest.raises(ValidationError) as exc:
        validate_dag(dag)
    assert str(exc.value) == "edge 1->0 runs against the stored function order"
    assert "cycle" not in str(exc.value)


def test_validate_dag_walks_each_function_once_before_an_order_violation():
    # the walk from 0 finishes 2 and then 1, so roots 1 and 2 are skipped;
    # the DAG is acyclic, and 2->1 runs against the stored order
    dag = WorkloadDag(
        functions=tuple(FunctionNode(i, 1.0) for i in range(3)),
        edges=(StreamEdge(0, 2, 1.0), StreamEdge(2, 1, 1.0)),
    )
    with pytest.raises(ValidationError) as exc:
        validate_dag(dag)
    assert str(exc.value) == "edge 2->1 runs against the stored function order"


def test_validate_dag_reports_a_cycle_before_an_earlier_order_violation():
    # edge 1->0 runs backward first, but the 2 -> 3 -> 2 cycle is the error
    dag = WorkloadDag(
        functions=tuple(FunctionNode(i, 1.0) for i in range(4)),
        edges=(StreamEdge(1, 0, 1.0), StreamEdge(2, 3, 1.0), StreamEdge(3, 2, 1.0)),
    )
    with pytest.raises(ValidationError) as exc:
        validate_dag(dag)
    assert str(exc.value) == "workload edges form a cycle: 2 -> 3 -> 2"


@pytest.mark.parametrize(
    "order,edges,witness",
    [
        # the search roots at each function in stored order, so at 3 first
        ((3, 2, 1, 0), [(0, 1), (1, 0), (3, 2), (2, 3)], "3 -> 2 -> 3"),
        # and follows a function's streams out in edges order, so 0->2 first
        ((0, 1, 2), [(0, 2), (0, 1), (1, 0), (2, 0)], "0 -> 2 -> 0"),
    ],
    ids=["stored-order-roots", "edges-order-successors"],
)
def test_the_cycle_witness_follows_stored_and_edges_order(order, edges, witness):
    dag = WorkloadDag(_functions(*order), tuple(StreamEdge(u, v, 1.0) for u, v in edges))
    with pytest.raises(ValidationError) as exc:
        validate_dag(dag)
    assert str(exc.value) == f"workload edges form a cycle: {witness}"


def test_every_cycle_witness_is_a_closed_walk_over_the_edges():
    rng = random.Random(20)
    cyclic = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        order = rng.sample(range(n), n)
        density = rng.random() / 2
        edges = {(u, v) for u in range(n) for v in range(n) if rng.random() < density}
        dag = WorkloadDag(_functions(*order), tuple(StreamEdge(u, v, 1.0) for u, v in edges))
        # independent of the search: peel functions with no stream in until none is left
        left = set(range(n))
        while peel := {v for v in left if not any(u in left for u, w in edges if w == v)}:
            left -= peel
        try:
            validate_dag(dag)
            message = ""
        except ValidationError as exc:
            message = str(exc)
        if not message.startswith("workload edges form a cycle: "):
            assert not left, (order, sorted(edges), message)
            continue
        cyclic += 1
        chain = [int(f) for f in message.split(": ")[1].split(" -> ")]
        assert len(chain) >= 2 and chain[0] == chain[-1]
        assert all(hop in edges for hop in zip(chain, chain[1:])), (sorted(edges), chain)
    assert 100 < cyclic < 400  # both kinds of digraph were drawn


def test_validate_dag_seeks_cycles_only_past_an_order_violation(monkeypatch):
    # every edge of a forward-ordered DAG runs with the stored order, so no
    # cycle can hide in it and the depth-first walk is skipped
    def no_walk(dag):
        raise AssertionError("validate_dag walked for cycles")

    monkeypatch.setattr(model, "_check_acyclic", no_walk)
    dag = WorkloadDag(
        functions=tuple(FunctionNode(i, 1.0) for i in range(3)),
        edges=(StreamEdge(0, 1, 1.0), StreamEdge(0, 2, 1.0), StreamEdge(1, 2, 1.0)),
    )
    validate_dag(dag)


def test_validate_dag_rejects_nonpositive_stream():
    dag = WorkloadDag(
        functions=(FunctionNode(0, 1.0), FunctionNode(1, 1.0)),
        edges=(StreamEdge(0, 1, 0.0),),
    )
    with pytest.raises(
        ValidationError, match=r"stream 0->1 must be > 0 bits, got 0\.0"
    ):
        validate_dag(dag)


def test_validate_dag_rejects_duplicate_edge():
    dag = WorkloadDag(
        functions=(FunctionNode(0, 1.0), FunctionNode(1, 1.0)),
        edges=(StreamEdge(0, 1, 1.0), StreamEdge(0, 1, 2.0)),
    )
    with pytest.raises(ValidationError, match="more than one stream edge from 0 to 1"):
        validate_dag(dag)


def test_validate_dag_rejects_negative_flops():
    dag = WorkloadDag(
        functions=(FunctionNode(0, -1.0), FunctionNode(1, 1.0)),
        edges=(StreamEdge(0, 1, 1.0),),
    )
    with pytest.raises(ValidationError):
        validate_dag(dag)


# ---------------------------------------------------------------------------
# dummy-tail augmentation
# ---------------------------------------------------------------------------


def test_augment_single_destination():
    aug = chain_dag([1.0, 2.0], sizes=[3.0], dst_out=5.0)
    assert aug.dummy_id == 2
    assert aug.functions[-1] == FunctionNode(2, 0.0)
    assert aug.stream_table == ([[], [(0, 3.0)], [(1, 5.0)]], [1, 1, 0])


def test_augment_two_destinations_adds_two_edges():
    dag = WorkloadDag(
        functions=tuple(FunctionNode(i, 1.0) for i in range(3)),
        edges=(StreamEdge(0, 1, 1.0), StreamEdge(0, 2, 1.0)),
    )
    aug = augment_dummy_tail(dag, {1: 2.0, 2: 4.0})
    assert aug.dummy_id == 3
    assert aug.stream_table == (
        [[], [(0, 1.0)], [(0, 1.0)], [(1, 2.0), (2, 4.0)]],
        [2, 1, 1, 0],
    )


def test_augment_rejects_wrong_destination_set():
    dag = WorkloadDag(
        functions=(FunctionNode(0, 1.0), FunctionNode(1, 1.0)),
        edges=(StreamEdge(0, 1, 1.0),),
    )
    with pytest.raises(
        ValidationError,
        match=r"missing sizes for destinations \[1\]; "
        r"sizes given for non-destinations \[0\]",
    ):
        augment_dummy_tail(dag, {0: 1.0})


def test_augment_rejects_zero_flop_destination():
    dag = WorkloadDag(
        functions=(FunctionNode(0, 1.0), FunctionNode(1, 0.0)),
        edges=(StreamEdge(0, 1, 1.0),),
    )
    with pytest.raises(ValidationError, match="destination 1 has zero flops"):
        augment_dummy_tail(dag, {1: 1.0})


def test_augment_rejects_nonpositive_output_size():
    dag = WorkloadDag(
        functions=(FunctionNode(0, 1.0), FunctionNode(1, 1.0)),
        edges=(StreamEdge(0, 1, 1.0),),
    )
    with pytest.raises(
        ValidationError, match=r"output of destination 1 must be > 0 bits, got 0\.0"
    ):
        augment_dummy_tail(dag, {1: 0.0})


# the tables augmentation hands over, against those a reference builds
ROOT = pathlib.Path(__file__).resolve().parents[1]
HANDED_OVER = {"position", "stream_table", "stream_keys", "_weights"}
SHUFFLED = {  # stored order 2, 0, 3, 1, which is not id order, and unsorted edges
    "functions": [
        {"id": 2, "flops": 3.0e9}, {"id": 0, "flops": 1.0e9},
        {"id": 3, "flops": 2.5e9}, {"id": 1, "flops": 4.0e9},
    ],
    "edges": [
        {"src": 2, "dst": 1, "bits": 6.0e6}, {"src": 0, "dst": 1, "bits": 5.0e6},
        {"src": 2, "dst": 0, "bits": 7.0e6}, {"src": 2, "dst": 3, "bits": 1.1e7},
    ],
    "dst_out": {"3": 9.0e6, "1": 8.0e6},
}


def _tables(dag):
    """Every table an embedder reads, with ``position``'s insertion order and
    each vector's dtype and bits."""
    return _listed(dag.stream_table, dag.stream_keys, dag.position, dag._weights)


def _listed(stream_table, stream_keys, position, weights):
    return (
        stream_table,
        stream_keys,
        list(position.items()),
        [(v.dtype, [float.hex(float(x)) for x in v]) for v in weights],
    )


def _reference_tables(dag, dst_out):
    """``_tables`` of ``dag`` augmented, built edge by edge from the definition."""
    cid = len(dag.functions)
    functions = dag.functions + (FunctionNode(cid, 0.0),)
    edges = dag.edges + tuple(StreamEdge(d, cid, float(dst_out[d])) for d in sorted(dst_out))
    inputs = [sorted((e.src, e.size) for e in edges if e.dst == i) for i in range(cid + 1)]
    consumers = [sum(e.src == i for e in edges) for i in range(cid + 1)]
    weights = (
        np.array([f.flops for f in functions]),
        np.array([size for f in functions for _, size in inputs[f.id]]),
    )
    position = {f.id: index for index, f in enumerate(functions)}
    return _listed((inputs, consumers), tuple((e.src, e.dst) for e in edges), position, weights)


def _handed_over_records(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    from workloads import WORKLOADS, late_entry_records

    records = [
        record
        for name in ("desk-idle", "wide-busy")
        for spec in WORKLOADS[name].dag_specs(0)
        for record in generate_dag_records(spec)
    ]
    return records + late_entry_records() + [DagRecord(*dag_from_json(SHUFFLED))]


def test_augmentation_hands_over_the_tables_a_reference_build_gives(monkeypatch):
    records = _handed_over_records(monkeypatch)
    assert len(records) == 224
    for record in records:
        aug = augment_dummy_tail(record.dag, record.dst_out)
        assert vars(aug).keys() == {"functions", "edges"} | HANDED_OVER
        assert _tables(aug) == _reference_tables(record.dag, record.dst_out)
        sources = {e.src for e in aug.edges}
        assert [f.id for f in aug.functions if f.id not in sources] == [aug.dummy_id]
    # the shuffled document: rows by id in ascending source, keys in edges order
    inputs, consumers = aug.stream_table
    assert inputs == [
        [(2, 7.0e6)], [(0, 5.0e6), (2, 6.0e6)], [], [(2, 1.1e7)], [(1, 8.0e6), (3, 9.0e6)]
    ]
    assert consumers == [1, 1, 3, 1, 0]
    assert aug.stream_keys == ((2, 1), (0, 1), (2, 0), (2, 3), (1, 4), (3, 4))
    assert list(aug.position) == [2, 0, 3, 1, 4]
    flops, bits = aug._weights
    assert flops.tolist() == [3.0e9, 1.0e9, 2.5e9, 4.0e9, 0.0]
    assert bits.tolist() == [7.0e6, 1.1e7, 5.0e6, 6.0e6, 8.0e6, 9.0e6]


def test_the_weight_vectors_refuse_writes():
    aug = chain_dag([1.0, 2.0], sizes=[3.0], dst_out=5.0)
    for vector in aug._weights:
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 1.0


def test_copies_of_an_augmented_dag_keep_its_tables_and_read_only_vectors():
    aug = chain_dag([1.0, 2.0], sizes=[3.0], dst_out=5.0)
    for copied in (copy.deepcopy(aug), pickle.loads(pickle.dumps(aug))):
        assert copied == aug and type(copied) is type(aug)
        assert _tables(copied) == _tables(aug)
        assert [v.flags.writeable for v in copied._weights] == [False, False]


def test_augmentation_leaves_the_base_dag_as_validation_does():
    # a base DAG lives as long as its record: an index cached on it as well
    # as on the augmented DAG would double the tables a run holds
    for record in generate_dag_records(WorkloadSpec(seed=3, n_dags=20)):
        validated = WorkloadDag(record.dag.functions, record.dag.edges)
        validate_dag(validated)
        augment_dummy_tail(record.dag, record.dst_out)
        dag_to_json(record.dag, record.dst_out)
        assert vars(record.dag).keys() == vars(validated).keys() == {"functions", "edges"}


ALL = ("validate", "augment", "json")
OUTPUT = ("augment", "json")  # dag_to_json checks the tail as augment does
INF, NAN = math.inf, math.nan
ZERO_FLOP_TAIL = (
    "destination 2 has zero flops; workload appears to carry a collector tail already"
)

# (weight, value, message, routes that raise it; the others accept the value)
# recorded before each weight's checks were guarded by one comparison
PINNED_WEIGHT_ERRORS = [
    ("flops0", NAN, "function 0 flops must be finite, got nan", ALL),
    ("flops0", INF, "function 0 flops must be finite, got inf", ALL),
    ("flops0", -INF, "function 0 flops must be finite, got -inf", ALL),
    ("flops0", -1.0, "function 0 has negative flops", ALL),
    ("flops0", -0.0, None, ALL),
    ("flops0", 0.0, None, ALL),
    ("flops2", NAN, "function 2 flops must be finite, got nan", ALL),
    ("flops2", INF, "function 2 flops must be finite, got inf", ALL),
    ("flops2", -INF, "function 2 flops must be finite, got -inf", ALL),
    ("flops2", -1.0, "function 2 has negative flops", ALL),
    ("flops2", -0.0, ZERO_FLOP_TAIL, OUTPUT),
    ("flops2", 0.0, ZERO_FLOP_TAIL, OUTPUT),
    ("bits", NAN, "stream 0->2 bits must be finite, got nan", ALL),
    ("bits", INF, "stream 0->2 bits must be finite, got inf", ALL),
    ("bits", -INF, "stream 0->2 bits must be finite, got -inf", ALL),
    ("bits", -1.0, "stream 0->2 must be > 0 bits, got -1.0", ALL),
    ("bits", -0.0, "stream 0->2 must be > 0 bits, got -0.0", ALL),
    ("bits", 0.0, "stream 0->2 must be > 0 bits, got 0.0", ALL),
    ("out", NAN, "output of destination 2 must be finite, got nan", OUTPUT),
    ("out", INF, "output of destination 2 must be finite, got inf", OUTPUT),
    ("out", -INF, "output of destination 2 must be finite, got -inf", OUTPUT),
    ("out", -1.0, "output of destination 2 must be > 0 bits, got -1.0", OUTPUT),
    ("out", -0.0, "output of destination 2 must be > 0 bits, got -0.0", OUTPUT),
    ("out", 0.0, "output of destination 2 must be > 0 bits, got 0.0", OUTPUT),
]


@pytest.mark.parametrize(
    "weight, value, message, raising",
    PINNED_WEIGHT_ERRORS,
    ids=[f"{row[0]}={row[1]!r}" for row in PINNED_WEIGHT_ERRORS],
)
def test_weight_errors_keep_their_messages(weight, value, message, raising):
    # function 0 feeds the destinations 1 and 2
    w = {"flops0": 1.0, "flops2": 1.0, "bits": 1.0, "out": 1.0, weight: value}
    dag = WorkloadDag(
        functions=(
            FunctionNode(0, w["flops0"]), FunctionNode(1, 1.0), FunctionNode(2, w["flops2"])
        ),
        edges=(StreamEdge(0, 1, 1.0), StreamEdge(0, 2, w["bits"])),
    )
    dst_out = {1: 1.0, 2: w["out"]}
    routes = {
        "validate": lambda: validate_dag(dag),
        "augment": lambda: augment_dummy_tail(dag, dst_out),
        "json": lambda: dag_from_json(dag_to_json(dag, dst_out)),
    }
    for name, route in routes.items():
        if message is None or name not in raising:
            route()
            continue
        with pytest.raises(ValidationError) as info:
            route()
        assert str(info.value) == message


def _raised(call) -> str | None:
    """The message of the ValidationError ``call`` raises, else None."""
    try:
        call()
    except ValidationError as exc:
        return str(exc)
    return None


def _pair_tail(flops1=1.0, end=1):
    """0 -> ``end`` on functions 0 and 1, which has ``flops1`` flops."""
    return WorkloadDag((FunctionNode(0, 1.0), FunctionNode(1, flops1)), (StreamEdge(0, end, 1.0),))


# (DAG, output sizes, the message all three routes raise, or None)
TAIL_CASES = {
    "zero-flop-sink": (
        _pair_tail(flops1=0.0), {1: 1.0},
        "destination 1 has zero flops; workload appears to carry a collector tail already",
    ),
    "missing-key": (_pair_tail(), {}, "missing sizes for destinations [1]"),
    "extra-key": (_pair_tail(), {1: 1.0, 0: 2.0}, "sizes given for non-destinations [0]"),
    "bool-key": (
        _pair_tail(), {True: 1.0},
        "missing sizes for destinations [1]; sizes given for non-destinations [True]",
    ),
    "float-key": (
        _pair_tail(), {1.0: 1.0},
        "missing sizes for destinations [1]; sizes given for non-destinations [1.0]",
    ),
    "one-function-no-key": (
        WorkloadDag((FunctionNode(0, 1.0),), ()), {}, "missing sizes for destinations [0]"
    ),
    "unknown-end": (_pair_tail(end=5), {1: 1.0}, "edge 0->5 references an unknown function"),
    **{
        f"generated-{k}": (record.dag, record.dst_out, None)
        for k, record in enumerate(
            generate_dag_records(WorkloadSpec(seed=4, n_dags=4, dag_size_range=(1, 8)))
        )
    },
}


@pytest.mark.parametrize("case", TAIL_CASES)
def test_the_reader_and_writer_check_the_tail_as_augmentation_does(case):
    # each route raises the message, or (None) all three accept the workload
    dag, dst_out, message = TAIL_CASES[case]
    assert _raised(lambda: augment_dummy_tail(dag, dst_out)) == message
    assert _raised(lambda: dag_to_json(dag, dst_out)) == message
    assert _raised(lambda: dag_from_json(dag_to_json(dag, dst_out))) == message
    if all(type(k) is int for k in dst_out):  # a document the writer refuses to write
        doc = {
            "functions": [{"id": f.id, "flops": f.flops} for f in dag.functions],
            "edges": [{"src": e.src, "dst": e.dst, "bits": e.size} for e in dag.edges],
            "dst_out": {str(k): v for k, v in dst_out.items()},
        }
        assert _raised(lambda: dag_from_json(doc)) == message


@pytest.mark.parametrize(
    "value", [10**400, -(10**400), 2**1024, 10**5000], ids=["1e400", "-1e400", "2^1024", "1e5000"]
)
@pytest.mark.parametrize("weight", ["flops0", "flops2", "bits", "out"])
def test_int_weights_past_the_float_range_are_rejected(weight, value):
    # compared exactly before any float conversion, which would overflow
    w = {"flops0": 1, "flops2": 1, "bits": 1, "out": 1, weight: value}
    dag = WorkloadDag(
        functions=(FunctionNode(0, w["flops0"]), FunctionNode(1, 1), FunctionNode(2, w["flops2"])),
        edges=(StreamEdge(0, 1, 1), StreamEdge(0, 2, w["bits"])),
    )
    what = {
        "flops0": "function 0 flops",
        "flops2": "function 2 flops",
        "bits": "stream 0->2 bits",
        "out": "output of destination 2",
    }[weight]
    if weight != "out":
        with pytest.raises(ValidationError, match=f"^{what} must be finite, got an int past"):
            validate_dag(dag)
    with pytest.raises(ValidationError, match=f"^{what} must be finite, got an int past"):
        augment_dummy_tail(dag, {1: 1, 2: w["out"]})


@pytest.mark.parametrize("value", [None, "1.0", [1.0], 1j], ids=["none", "text", "list", "complex"])
@pytest.mark.parametrize("weight", ["flops0", "bits", "out"])
def test_weights_that_are_not_real_numbers_are_rejected(weight, value):
    w = {"flops0": 1.0, "bits": 1.0, "out": 1.0, weight: value}
    dag = WorkloadDag(
        functions=(FunctionNode(0, w["flops0"]), FunctionNode(1, 1.0)),
        edges=(StreamEdge(0, 1, w["bits"]),),
    )
    with pytest.raises(ValidationError, match=f"must be finite, got {re.escape(repr(value))}$"):
        augment_dummy_tail(dag, {1: w["out"]})


def test_int_weights_at_the_float_range_are_accepted():
    top = int(sys.float_info.max)
    dag = WorkloadDag(
        functions=(FunctionNode(0, top), FunctionNode(1, 1)), edges=(StreamEdge(0, 1, top),)
    )
    aug = augment_dummy_tail(dag, {1: top})
    assert aug.edges[-1].size == sys.float_info.max
    for huge in (top + 1, 2**1024):
        with pytest.raises(ValidationError, match="an int past the float range"):
            augment_dummy_tail(dag, {1: huge})


def test_rates_past_the_float_range_are_rejected():
    net = make_network([Server(0, 10**400), Server(1, 1.0)], [Link(0, 0, 1, 1.0)])
    with pytest.raises(ValidationError, match="server 0 psi must be finite, got an int past"):
        validate_network(net)


# ---------------------------------------------------------------------------
# processing time
# ---------------------------------------------------------------------------


def _processing(flops: float, *speeds: float) -> list[list[float]]:
    """The processing table's rows for a ``flops`` function and the collector
    that augmentation adds, on servers of these speeds."""
    dag = augment_dummy_tail(WorkloadDag(functions=(FunctionNode(0, flops),), edges=()), {0: 1.0})
    net = make_network([Server(i, psi) for i, psi in enumerate(speeds)], [])
    return _processing_table(dag, net).tolist()


def test_processing_time_exact_division():
    assert _processing(3.0e9, 1.5e10)[0] == [0.2]


def test_processing_time_dummy_is_free():
    assert _processing(3.0e9, 1.0)[1] == [0.0]


def test_processing_time_scales_inversely_with_speed():
    slow, fast = _processing(7.3e9, 2.0e10, 4.0e10)[0]
    assert fast == pytest.approx(slow / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def test_network_json_round_trip():
    net = make_network(
        [Server(0, 2.0e10), Server(1, 3.0e10)],
        [Link(0, 0, 1, 3.0e7)],
    )
    doc = network_to_json(net)
    assert doc["servers"][0] == {"id": 0, "psi": 2.0e10}
    assert doc["links"][0] == {"id": 0, "u": 0, "v": 1, "b": 3.0e7}
    back = network_from_json(json.loads(json.dumps(doc)))
    assert back.servers == net.servers
    assert back.links == net.links


def test_dag_json_round_trip():
    dag = WorkloadDag(
        functions=(FunctionNode(0, 1.0e9), FunctionNode(1, 2.0e9)),
        edges=(StreamEdge(0, 1, 5.0e6),),
    )
    doc = dag_to_json(dag, {1: 7.0e6})
    assert doc["functions"][0] == {"id": 0, "flops": 1.0e9}
    assert doc["edges"][0] == {"src": 0, "dst": 1, "bits": 5.0e6}
    assert doc["dst_out"] == {"1": 7.0e6}
    back, dst_out = dag_from_json(json.loads(json.dumps(doc)))
    assert back.functions == dag.functions
    assert back.edges == dag.edges
    assert dst_out == {1: 7.0e6}


def test_dag_to_json_writes_what_dag_from_json_reads():
    # an int64 id or a Fraction or float32 weight was copied as given, for a
    # document that json.dumps could not write and the reader refused
    first, second = FunctionNode(np.int64(0), Fraction(3, 2)), FunctionNode(1, np.float32(2.5))
    dag = WorkloadDag((first, second), (StreamEdge(np.int64(0), 1, np.float32(0.75)),))
    doc = json.loads(json.dumps(dag_to_json(dag, {np.int64(1): Fraction(1, 4)})))
    back, dst_out = dag_from_json(doc)
    assert back.functions == (FunctionNode(0, 1.5), FunctionNode(1, 2.5))
    assert back.edges == (StreamEdge(0, 1, 0.75),) and dst_out == {1: 0.25}


def test_network_to_json_validates_and_writes_what_network_from_json_reads():
    servers = [Server(np.int64(0), Fraction(1, 2)), Server(1, np.float32(2.0))]
    net = make_network(servers, [Link(np.int64(0), 0, np.int64(1), 3)])
    back = network_from_json(json.loads(json.dumps(network_to_json(net))))
    assert back == make_network([Server(0, 0.5), Server(1, 2.0)], [Link(0, 0, 1, 3.0)])
    twice = make_network(servers, [*net.links, Link(1, 1, 0, 1.0)])
    with pytest.raises(ValidationError, match="more than one link between servers 0 and 1"):
        network_to_json(twice)


def test_canonical_json_is_key_sorted_and_compact():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text == '{"a":[2,3],"b":1}'


def test_network_round_trip_via_canonical_text():
    net = complete_network(3, throughput=5.0e7, psi=2.5e10)
    text = canonical_json(network_to_json(net))
    back = network_from_json(json.loads(text))
    assert canonical_json(network_to_json(back)) == text


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------


def test_all_names_exactly_the_public_attributes():
    names = edge_embed.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    public = {
        name
        for name, value in vars(edge_embed).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


@pytest.mark.parametrize(
    "record",
    [
        Server(0, 1.0),
        Link(0, 0, 1, 1.0),
        FunctionNode(0, 1.0),
        StreamEdge(0, 1, 1.0),
        EdgeMapping(),
        EmbeddingResult({0: 0}, {}, {0: 1.0}, 1.0),
    ],
    ids=lambda record: type(record).__name__,
)
def test_frozen_records_hold_their_fields_in_slots(record):
    # built by the thousand per run, so each keeps its fields without a dict
    assert not hasattr(record, "__dict__")
    # frozen for fields and other names alike: a slotted frozen dataclass's
    # own methods raise TypeError for a name that is no field (Python 3.11)
    field = dataclasses.fields(record)[0].name
    for name in (field, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(record, name)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert copied == record and type(copied) is type(record)
    assert dataclasses.replace(record) == record
    changed = dataclasses.replace(record, **{field: getattr(record, field)})
    assert changed == record and changed is not record
