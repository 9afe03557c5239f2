"""Data-model tests: validation, augmentation, timing, and JSON wire format."""

from __future__ import annotations

import json

import pytest

from edge_embed import (
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
    processing_time,
    validate_dag,
    validate_network,
)

from conftest import chain_dag, complete_network, triangle_network


# ---------------------------------------------------------------------------
# network construction and validation
# ---------------------------------------------------------------------------


def test_make_network_builds_sorted_adjacency():
    net = triangle_network()
    assert net.n_servers == 3
    # adjacency holds (neighbor, link id) pairs sorted by neighbor
    assert net.adjacency[0] == ((1, 0), (2, 2))
    assert net.adjacency[1] == ((0, 0), (2, 1))
    assert net.adjacency[2] == ((0, 2), (1, 1))


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
    assert [f for f, preds in dag.predecessors.items() if not preds] == [0]
    assert dag.destination_ids == (3,)
    assert dag.successors[0] == (1, 2)
    assert dag.predecessors[3] == (1, 2)


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
    dummy = aug.by_id[2]
    assert dummy.is_dummy and dummy.flops == 0.0
    assert aug.stream_size[(1, 2)] == 5.0
    assert aug.out_degree[1] == 1
    assert aug.functions[-1].id == 2


def test_augment_two_destinations_adds_two_edges():
    dag = WorkloadDag(
        functions=tuple(FunctionNode(i, 1.0) for i in range(3)),
        edges=(StreamEdge(0, 1, 1.0), StreamEdge(0, 2, 1.0)),
    )
    aug = augment_dummy_tail(dag, {1: 2.0, 2: 4.0})
    assert aug.dummy_id == 3
    assert aug.stream_size[(1, 3)] == 2.0
    assert aug.stream_size[(2, 3)] == 4.0
    assert aug.predecessors[3] == (1, 2)


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


# ---------------------------------------------------------------------------
# processing time
# ---------------------------------------------------------------------------


def test_processing_time_exact_division():
    f = FunctionNode(0, 3.0e9)
    s = Server(0, 1.5e10)
    assert processing_time(f, s) == 0.2


def test_processing_time_dummy_is_free():
    f = FunctionNode(0, 0.0, is_dummy=True)
    assert processing_time(f, Server(0, 1.0)) == 0.0


def test_processing_time_scales_inversely_with_speed():
    f = FunctionNode(0, 7.3e9)
    slow = processing_time(f, Server(0, 2.0e10))
    fast = processing_time(f, Server(0, 4.0e10))
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
