"""Data-model tests: validation, augmentation, timing, and JSON wire format."""

from __future__ import annotations

import json
import math
import re
import sys
import types

import pytest

from edge_embed import (
    EmbeddingResult,
    FunctionNode,
    Link,
    Server,
    StreamEdge,
    ValidationError,
    WorkloadDag,
    augment_dummy_tail,
    canonical_json,
    dag_from_json,
    dag_to_json,
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
    assert dag.destination_ids == (3,)
    assert dag.stream_table == (
        [[], [(0, 1.0)], [(0, 1.0)], [(1, 1.0), (2, 1.0)]],
        [2, 1, 1, 0],
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


ALL = ("validate", "augment", "json")
AUGMENT = ("augment",)
OUTPUT = ("augment", "json")  # dag_to_json checks the outputs as augment does
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
    ("flops2", -0.0, ZERO_FLOP_TAIL, AUGMENT),
    ("flops2", 0.0, ZERO_FLOP_TAIL, AUGMENT),
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


def _processing(flops: float, *speeds: float) -> list[float]:
    """The processing table's one row: ``flops`` on servers of these speeds."""
    dag = WorkloadDag(functions=(FunctionNode(0, flops),), edges=())
    net = make_network([Server(i, psi) for i, psi in enumerate(speeds)], [])
    return _processing_table(dag, net).tolist()[0]


def test_processing_time_exact_division():
    assert _processing(3.0e9, 1.5e10) == [0.2]


def test_processing_time_dummy_is_free():
    assert _processing(0.0, 1.0) == [0.0]


def test_processing_time_scales_inversely_with_speed():
    slow, fast = _processing(7.3e9, 2.0e10, 4.0e10)
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
        EmbeddingResult({0: 0}, {}, {0: 1.0}, 1.0),
    ],
    ids=lambda record: type(record).__name__,
)
def test_frozen_records_hold_their_fields_in_slots(record):
    # built by the thousand per run, so each keeps its fields without a dict
    assert not hasattr(record, "__dict__")
