"""Dynamic-program embedder tests against hand cases and the exhaustive oracle."""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest

from edge_embed import (
    EdgeEmbedError,
    EdgeMapping,
    FunctionNode,
    Link,
    Server,
    SimplePath,
    StreamEdge,
    ValidationError,
    WorkloadDag,
    WorkloadSpec,
    augment_dummy_tail,
    brute_force_embed,
    build_catalog,
    dpe_embed,
    embedding_to_json,
    generate_dag_records,
    generate_network,
    make_network,
    placement_only_embed,
    simulate_embedding,
    validate_network,
)
from edge_embed import model
from edge_embed.cli import EMBEDDERS
from edge_embed.embedder import _processing_table
from edge_embed.model import validate_time_range

from conftest import (
    chain_dag,
    complete_network,
    random_general_dag,
    random_out_tree,
    small_random_network,
    worked_example,
)

REL = 1e-9


def two_server_line():
    net = make_network([Server(0, 1.0), Server(1, 1.0)], [Link(0, 0, 1, 2.0)])
    validate_network(net)
    return net


def both_algorithms(aug, net):
    catalog = build_catalog(net)
    return [dpe_embed(aug, net, catalog), placement_only_embed(aug, net, catalog)]


# ---------------------------------------------------------------------------
# entry rows
# ---------------------------------------------------------------------------


def test_entry_row_is_processing_time_per_server():
    net = make_network(
        [Server(0, 1.5e10), Server(1, 2.0e10)], [Link(0, 0, 1, 1.0)]
    )
    aug = chain_dag([3.0e9], sizes=[])
    for result in both_algorithms(aug, net):
        assert result.placements[0] == 1
        assert result.finish_times[0] == 0.15
    # a late server 1 exposes the entry's row on server 0
    pinned = dpe_embed(aug, net, build_catalog(net), ready={1: 0.1})
    assert pinned.placements[0] == 0
    assert pinned.finish_times[0] == 0.2


def test_processing_table_divides_like_the_replay(rng):
    # every embedder reads the table, the replay divides inline as its
    # independent check: the floats must be the same
    for _ in range(20):
        net, aug = small_random_network(rng), random_general_dag(rng)
        assert _processing_table(aug, net).tolist() == [
            [f.flops / s.psi for s in net.servers] for f in aug.functions
        ]


def test_entry_rows_honor_ready_times():
    net = make_network(
        [Server(0, 1.5e10), Server(1, 2.0e10)], [Link(0, 0, 1, 1.0)]
    )
    aug = chain_dag([3.0e9], sizes=[])
    result = dpe_embed(aug, net, build_catalog(net), ready={0: 0.5, 1: 0.25})
    assert result.placements[0] == 1
    assert result.finish_times[0] == 0.15 + 0.25
    # ready times are not a function's own delay: a missing server is idle
    idle_one = dpe_embed(aug, net, build_catalog(net), ready={0: 0.5})
    assert idle_one.finish_times[0] == 0.15


# ---------------------------------------------------------------------------
# per-edge choices
# ---------------------------------------------------------------------------


def test_cheapest_source_feeds_each_destination():
    # Entry f0 finishes at 5 s on server 0 and 9 s on server 1 (ready 4 and
    # 8.75); f1 (8 flops) prefers the 4x faster server 1, and its 2-bit
    # input pays 1 s over the 2 bit/s link: 5 + 1 + 2 = 8 beats 9 + 0 + 2.
    net = make_network([Server(0, 1.0), Server(1, 4.0)], [Link(0, 0, 1, 2.0)])
    validate_network(net)
    aug = chain_dag([1.0, 8.0], sizes=[2.0], dst_out=2.0)
    result = dpe_embed(aug, net, build_catalog(net), ready={0: 4.0, 1: 8.75})
    assert result.placements == {0: 0, 1: 1, 2: 1}
    assert result.finish_times == {0: 5.0, 1: 8.0, 2: 8.0}
    mapping = result.edge_mappings[(0, 1)]
    assert [p.nodes for p in mapping.paths] == [(0, 1)]
    assert mapping.allocations == (2.0,)


def test_ties_go_to_the_smallest_server():
    # Servers 1 and 2 are equally fast and the links equally quick, so every
    # row ties between them; both algorithms must settle on server 1.
    net = make_network(
        [Server(0, 0.5), Server(1, 1.0), Server(2, 1.0)],
        [Link(0, 0, 1, 1.0), Link(1, 0, 2, 1.0), Link(2, 1, 2, 1.0)],
    )
    validate_network(net)
    aug = chain_dag([1.0, 1.0], sizes=[3.0])
    for result in both_algorithms(aug, net):
        assert set(result.placements.values()) == {1}
    # A tie among sources: f0 finishes at 1, 3 and 1 s on servers 0-2 and
    # 3 bits take 2 s between any two servers, so every source delivers to
    # f1 on the fast server 1 at 3 s; the smallest source id, 0, wins.
    fast = make_network(
        [Server(0, 1.0), Server(1, 8.0), Server(2, 1.0)],
        [Link(0, 0, 1, 1.0), Link(1, 0, 2, 1.0), Link(2, 1, 2, 1.0)],
    )
    aug = chain_dag([1.0, 8.0], sizes=[3.0])
    result = dpe_embed(aug, fast, build_catalog(fast), ready={1: 2.875})
    assert result.placements == {0: 0, 1: 1, 2: 1}
    assert result.makespan == 4.0


def test_a_tie_made_by_rounding_goes_to_the_smallest_server():
    # Server 2 (4 flop/s) is the hub of links to servers 0 and 1 (1 flop/s),
    # and f1's 12 flops take 3 s on it. f0 (0.5 flops) ends at 0.5 + 2^-52
    # s on server 0 and 0.5 s on server 1, so its 0.5 bits reach server 2
    # at 1 + 2^-52 and 1 s: strictly apart, server 1 first. Adding the 3 s
    # of processing rounds both to 4.0, and the per-source sums tie, so the
    # smaller source id, 0, must win.
    net = make_network(
        [Server(0, 1.0), Server(1, 1.0), Server(2, 4.0)],
        [Link(0, 0, 2, 1.0), Link(1, 1, 2, 1.0)],
    )
    validate_network(net)
    aug = chain_dag([0.5, 12.0], sizes=[0.5])
    ready = {0: 2.0**-52, 2: 10.0}
    assert (1.0 + 2.0**-52) + 3.0 == 1.0 + 3.0 == 4.0
    catalog = build_catalog(net)
    for embed in (dpe_embed, placement_only_embed):
        result = embed(aug, net, catalog, ready=ready)
        assert result.placements == {0: 0, 1: 2, 2: 2}
        assert result.finish_times == {0: 0.5 + 2.0**-52, 1: 4.0, 2: 4.0}


def test_same_server_stream_has_no_paths():
    aug = chain_dag([1.0, 1.0], sizes=[2.0])
    for result in both_algorithms(aug, two_server_line()):
        mapping = result.edge_mappings[(0, 1)]
        assert mapping.same_server
        assert mapping.paths == () and mapping.allocations == ()


def test_committed_source_is_not_re_placed_per_consumer():
    # f0 fans out to f1 and f2; f3 feeds f2 a large stream. f1 is embedded
    # first and commits f0 to server 0. f2 then lands on server 1 next to
    # f3 and must wait for f0's 16 bits over the link (1 + 16 + 1 = 18 s),
    # although f0 on server 1 would have delivered at 4.5 + 1 = 5.5 s and
    # let f2 finish at 15 s, the exhaustive optimum.
    net = make_network([Server(0, 1.0), Server(1, 2.0)], [Link(0, 0, 1, 1.0)])
    validate_network(net)
    dag = WorkloadDag(
        functions=(
            FunctionNode(0, 1.0),
            FunctionNode(1, 1.0),
            FunctionNode(3, 20.0),
            FunctionNode(2, 2.0),
        ),
        edges=(
            StreamEdge(0, 1, 1.0),
            StreamEdge(0, 2, 16.0),
            StreamEdge(3, 2, 8.0),
        ),
    )
    aug = augment_dummy_tail(dag, {1: 1.0, 2: 1.0})
    catalog = build_catalog(net)
    ready = {0: 0.0, 1: 4.0}
    result = dpe_embed(aug, net, catalog, ready)
    assert result.placements == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}
    assert result.finish_times[2] == 18.0
    assert result.makespan == 18.0
    assert brute_force_embed(aug, net, catalog, ready).makespan == 15.0


def test_committed_source_charges_each_stream_its_own_bits():
    # A committed fan-out source ships two streams of different sizes; each
    # edge must be charged for its own bits, not a sibling's transit.
    net = make_network([Server(0, 1.0), Server(1, 8.0)], [Link(0, 0, 1, 2.0)])
    validate_network(net)
    dag = WorkloadDag(
        functions=(
            FunctionNode(id=0, flops=1.0),
            FunctionNode(id=1, flops=8.0),
            FunctionNode(id=2, flops=8.0),
        ),
        edges=(
            StreamEdge(src=0, dst=1, size=2.0),
            StreamEdge(src=0, dst=2, size=8.0),
        ),
    )
    aug = augment_dummy_tail(dag, {1: 1.0, 2: 1.0})
    result = dpe_embed(aug, net, build_catalog(net), ready={1: 10.0})
    assert result.placements == {0: 0, 1: 1, 2: 1, 3: 1}
    # 0.5 s per bit: f0 ends at 1 s, then 1 s and 4 s of transit, 1 s of work
    assert result.finish_times[1] == 1.0 + 2.0 * 0.5 + 1.0
    assert result.finish_times[2] == 1.0 + 8.0 * 0.5 + 1.0


def test_row_commits_two_sources_beside_an_earlier_commitment():
    # Servers run at 1 and 2 flop/s, server 1 is ready at 2 s and one link
    # moves a bit per second. Entries A=0, B=1, C=2 (1 flop each) finish at
    # [1, 2.5] s. X=3 (2 flops, 2 bits from C) has the row [3, 3.5], best
    # on server 0 with C on 0, so C is committed to 0 and X's row becomes
    # [3, 4]. Y=4 (4 flops) reads A (1 bit), B (2 bits) and committed C
    # (1 bit): arrivals [5, 4] from A on 0, [5, 4.5] from B on 0 and 1, and
    # [5, 4] from C; the row [5, 4.5] is best on server 1, so this one row
    # commits A to 0 and B to 1. B's arrival at Y on server 0 is then
    # 2.5 + 2 + 4 = 8.5 and Y's row [8.5, 4.5]. Z=5 (2 flops) reads A
    # (4 bits) and B (1 bit): [5.5, 6]. The collector (2, 1 and 2 bits from
    # X, Y, Z) reads [5.5, 6] and sits on server 0, with Y kept on 1.
    net = make_network([Server(0, 1.0), Server(1, 2.0)], [Link(0, 0, 1, 1.0)])
    validate_network(net)
    dag = WorkloadDag(
        functions=tuple(
            FunctionNode(f, c) for f, c in enumerate([1.0, 1.0, 1.0, 2.0, 4.0, 2.0])
        ),
        edges=(
            StreamEdge(2, 3, 2.0),
            StreamEdge(0, 4, 1.0),
            StreamEdge(1, 4, 2.0),
            StreamEdge(2, 4, 1.0),
            StreamEdge(0, 5, 4.0),
            StreamEdge(1, 5, 1.0),
        ),
    )
    aug = augment_dummy_tail(dag, {3: 2.0, 4: 1.0, 5: 2.0})
    catalog = build_catalog(net)
    ready = {0: 0.0, 1: 2.0}
    result = dpe_embed(aug, net, catalog, ready)
    assert result.placements == {0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 0, 6: 0}
    assert result.finish_times == {
        0: 1.0, 1: 2.5, 2: 1.0, 3: 3.0, 4: 4.5, 5: 5.5, 6: 5.5
    }
    assert result.makespan == 5.5
    finish, makespan = simulate_embedding(
        aug, net, result.placements, result.edge_mappings, ready
    )
    assert makespan == pytest.approx(result.makespan, rel=REL)
    for fid, t in result.finish_times.items():
        assert finish[fid] == pytest.approx(t, rel=REL)
    # Everything on server 0 finishes at 5 s: commit-once costs 0.5 s here.
    brute = brute_force_embed(aug, net, catalog, ready)
    assert result.makespan >= brute.makespan
    assert brute.makespan <= 5.0


# ---------------------------------------------------------------------------
# whole-workload embedding: hand cases
# ---------------------------------------------------------------------------


def test_single_function_lands_on_fastest_server():
    net = make_network([Server(0, 1.0), Server(1, 2.0)], [Link(0, 0, 1, 1.0)])
    aug = chain_dag([2.0], sizes=[], dst_out=1.0)
    result = dpe_embed(aug, net, build_catalog(net))
    assert result.makespan == 1.0
    assert result.placements[0] == 1
    assert result.placements[aug.dummy_id] == 1
    assert result.edge_mappings[(0, aug.dummy_id)].same_server


def test_chain_colocates_on_fastest_server():
    net = make_network(
        [Server(0, 2.0), Server(1, 4.0)], [Link(0, 0, 1, 0.001)]
    )
    aug = chain_dag([4.0, 8.0, 4.0], sizes=[5.0, 5.0], dst_out=2.0)
    result = dpe_embed(aug, net, build_catalog(net))
    # the link is so slow that everything stacks on the 4 flop/s server
    assert result.makespan == pytest.approx(4.0, rel=REL)
    assert set(result.placements.values()) == {1}


def test_worked_example_replays_to_exactly_7_5_seconds():
    aug, net, placements, mappings, expected = worked_example()
    finish, makespan = simulate_embedding(aug, net, placements, mappings)
    assert makespan == expected  # bit-for-bit
    assert finish[0] == 1.0
    assert finish[1] == 5.0
    assert finish[2] == 7.5
    assert finish[aug.dummy_id] == 7.5


def _two_route_replay(mapping):
    """Replay f0 on server 0 -> f1 on server 1, the stream mapped by hand
    over the direct link (0.5 s/bit) and the detour via 2 (0.25 s/bit)."""
    net = make_network(
        [Server(0, 1.0), Server(1, 1.0), Server(2, 1.0)],
        [Link(0, 0, 1, 2.0), Link(1, 0, 2, 8.0), Link(2, 2, 1, 8.0)],
    )
    aug = chain_dag([1.0, 1.0], sizes=[16.0], dst_out=1.0)
    placements = {0: 0, 1: 1, aug.dummy_id: 1}
    mappings = {(0, 1): mapping, (1, aug.dummy_id): EdgeMapping()}
    return simulate_embedding(aug, net, placements, mappings)


def test_replay_waits_for_the_slowest_branch():
    direct = SimplePath(nodes=(0, 1), link_ids=(0,))
    detour = SimplePath(nodes=(0, 2, 1), link_ids=(1, 2))
    mapping = EdgeMapping((direct, detour), (6.0, 10.0))
    finish, makespan = _two_route_replay(mapping)
    assert finish[1] == 1.0 + 3.0 + 1.0  # max(0.5 * 6, 0.25 * 10) = 3 s in transit
    assert makespan == 5.0


def test_replay_rejects_a_routed_stream_without_paths():
    with pytest.raises(ValueError):
        _two_route_replay(EdgeMapping())


def test_replay_frees_only_streams_between_one_server():
    # stream 0 -> 1 runs from server 0 to server 1: a mapping without paths
    # does not make it free (that would finish at 4.5 s, not 7.5 s)
    aug, net, placements, mappings, _ = worked_example()
    mappings[(0, 1)] = EdgeMapping()
    with pytest.raises(ValueError):
        simulate_embedding(aug, net, placements, mappings)


def test_a_mapping_is_its_paths():
    assert [f.name for f in dataclasses.fields(EdgeMapping)] == ["paths", "allocations"]
    hop = SimplePath(nodes=(0, 1), link_ids=(0,))
    assert EdgeMapping().same_server
    assert not EdgeMapping((hop,), (1.0,)).same_server


def test_embeddings_of_a_dag_share_its_stream_keys():
    spec = WorkloadSpec(seed=0, n_servers=4, n_dags=1, dag_size_range=(8, 8))
    net = generate_network(spec)
    catalog = build_catalog(net)
    aug = generate_dag_records(spec)[0].augmented()
    results = [EMBEDDERS[a](aug, net, catalog) for a in ("dpe", "placement-only", "heft")]
    first = list(results[0].edge_mappings)
    assert first == [(e.src, e.dst) for e in aug.edges]
    for result in results[1:]:
        keys = list(result.edge_mappings)
        assert len(keys) == len(first) and all(k is f for k, f in zip(keys, first))
    # heft spreads this DAG, so some mappings carry paths
    routed = [m for r in results for m in r.edge_mappings.values() if not m.same_server]
    assert routed and not any(hasattr(m, "__dict__") for m in routed + [EdgeMapping()])


def test_embedders_build_no_table_on_an_augmented_dag(monkeypatch):
    # 5 functions on 3 servers: brute tries 243 placement vectors
    spec = WorkloadSpec(seed=1, n_servers=3, n_dags=3, dag_size_range=(4, 4))
    net = generate_network(spec)
    catalog = build_catalog(net)
    augs = [record.augmented() for record in generate_dag_records(spec)]

    def spy(*args):
        raise AssertionError("_stream_index ran")

    monkeypatch.setattr(model, "_stream_index", spy)
    with pytest.raises(AssertionError, match="_stream_index ran"):  # the spy sees a build
        model.validate_dag(augs[0])
    ready = {0: 0.5, 1: 0.2}
    for aug in augs:
        for algo in ("dpe", "placement-only", "heft", "brute"):
            result = EMBEDDERS[algo](aug, net, catalog, ready)
            simulate_embedding(aug, net, result.placements, result.edge_mappings, ready)


def test_split_strictly_beats_single_path_embedding():
    # Entry is pinned to server 0 by huge ready times elsewhere. The stream
    # to the worker on server 1 can ride two disjoint unit-rate routes:
    # splitting moves 2 bits in 1 s, the passive single path needs 2 s.
    net = make_network(
        [Server(0, 0.001), Server(1, 1.0), Server(2, 0.2)],
        [Link(0, 0, 1, 1.0), Link(1, 0, 2, 2.0), Link(2, 1, 2, 2.0)],
    )
    validate_network(net)
    aug = chain_dag([0.0001, 1.0], sizes=[2.0], dst_out=0.5)
    catalog = build_catalog(net)
    ready = {0: 0.0, 1: 1000.0, 2: 1000.0}
    with_split = dpe_embed(aug, net, catalog, ready=ready)
    assert with_split.makespan == pytest.approx(2.1, rel=REL)
    # placement-only places identically but sends the stream whole over
    # the best path
    passive = placement_only_embed(aug, net, catalog, ready=ready)
    assert passive.placements == with_split.placements
    assert passive.makespan == pytest.approx(3.1, rel=REL)
    mapping = with_split.edge_mappings[(0, 1)]
    assert not mapping.same_server
    assert len(mapping.paths) == 2  # both routes genuinely carry bits
    assert all(z > 0 for z in mapping.allocations)
    coeffs = catalog.pair_split(with_split.placements[0], with_split.placements[1])[1]
    passive_transit = 2.0 * min(coeffs)
    split_transit = 2.0 / sum(1.0 / a for a in coeffs)
    assert split_transit == pytest.approx(1.0, rel=REL)
    assert passive_transit == pytest.approx(2.0, rel=REL)


def test_an_infinite_path_coefficient_is_rejected_when_its_stream_is_split():
    # The detour 0-1-2 crosses two links of 1e-308 bit/s, so its coefficient
    # is 2e308 = inf, while the direct 0-2 link keeps the pair's transit
    # finite. The ready times pin the entry to server 0 and the fast
    # server 2 takes the consumer, so the split of 0 -> 2 must reject it.
    net = make_network(
        [Server(0, 1.0), Server(1, 1.0), Server(2, 1e10)],
        [Link(0, 0, 1, 1e-308), Link(1, 1, 2, 1e-308), Link(2, 0, 2, 1.0)],
    )
    validate_network(net)
    aug = chain_dag([1.0, 1e9], sizes=[1.0])
    catalog = build_catalog(net)
    with pytest.raises(
        ValidationError, match="^path coefficients and stream size must be finite$"
    ):
        dpe_embed(aug, net, catalog, ready={0: 0.0, 1: 100.0, 2: 100.0})


def test_late_entries_embed_like_entries_first():
    # Entry 3 is stored after the non-entry 1; the same DAG with its entries
    # first must give the identical embedding, and the exact optimum.
    functions = {f: FunctionNode(f, float(f + 1)) for f in range(4)}
    edges = (StreamEdge(0, 1, 3.0), StreamEdge(3, 2, 5.0))
    late = WorkloadDag(
        functions=tuple(functions[f] for f in (0, 1, 3, 2)), edges=edges
    )
    early = WorkloadDag(
        functions=tuple(functions[f] for f in (0, 3, 1, 2)), edges=edges
    )
    net = make_network(
        [Server(0, 1.0), Server(1, 2.0), Server(2, 1.5)],
        [Link(0, 0, 1, 2.0), Link(1, 1, 2, 1.0), Link(2, 0, 2, 4.0)],
    )
    validate_network(net)
    catalog = build_catalog(net)
    ready = {0: 0.0, 1: 6.0, 2: 2.0}
    dst_out = {1: 1.0, 2: 2.0}
    aug_late = augment_dummy_tail(late, dst_out)
    aug_early = augment_dummy_tail(early, dst_out)
    for embed, oracle in (
        (
            lambda aug: dpe_embed(aug, net, catalog, ready),
            brute_force_embed(aug_late, net, catalog, ready),
        ),
        (
            lambda aug: placement_only_embed(aug, net, catalog),
            brute_force_embed(aug_late, net, catalog),
        ),
    ):
        result = embed(aug_late)
        assert result == embed(aug_early)
        assert result.makespan == pytest.approx(oracle.makespan, rel=REL)


def _relabelled(record, perm):
    """``record`` augmented, with function f renamed ``perm[f]`` and the
    stored order, every weight and every stream kept."""
    dag = WorkloadDag(
        functions=tuple(FunctionNode(perm[f.id], f.flops) for f in record.dag.functions),
        edges=tuple(StreamEdge(perm[e.src], perm[e.dst], e.size) for e in record.dag.edges),
    )
    return augment_dummy_tail(dag, {perm[d]: bits for d, bits in record.dst_out.items()})


@pytest.mark.parametrize("algo", ["dpe", "heft", "placement-only"])
def test_relabelled_ids_give_the_relabelled_embedding(algo):
    # A generated DAG stores function f at position f. Permuted ids keep the
    # stored order, so every embedding and its replay must come back with
    # the ids renamed and every float unchanged, idle and on busy servers.
    spec = WorkloadSpec(seed=7, n_dags=30)
    net = generate_network(spec)
    catalog = build_catalog(net)
    embed = EMBEDDERS[algo]
    rng = np.random.default_rng(19)
    for record in generate_dag_records(spec):
        q = len(record.dag.functions)
        perm = [int(f) for f in rng.permutation(q)] + [q]  # the collector's id is q
        aug, renamed = record.augmented(), _relabelled(record, perm)
        busy = {s: float(t) for s, t in enumerate(rng.uniform(0.0, 3.0, net.n_servers))}

        def hexes(times, name=range(q + 1)):
            return {name[f]: t.hex() for f, t in times.items()}

        for ready in (None, busy):
            want = embed(aug, net, catalog, ready)
            got = embed(renamed, net, catalog, ready)
            assert got.placements == {perm[f]: s for f, s in want.placements.items()}
            assert hexes(got.finish_times) == hexes(want.finish_times, perm)
            assert got.makespan.hex() == want.makespan.hex()
            assert got.edge_mappings == {
                (perm[src], perm[dst]): m for (src, dst), m in want.edge_mappings.items()
            }
            want_replay, want_makespan = simulate_embedding(
                aug, net, want.placements, want.edge_mappings, ready
            )
            got_replay, got_makespan = simulate_embedding(
                renamed, net, got.placements, got.edge_mappings, ready
            )
            assert hexes(got_replay) == hexes(want_replay, perm)
            assert got_makespan.hex() == want_makespan.hex()


def test_splitting_beats_placement_only_on_a_busy_desk_suite():
    # The desk suite with each DAG's servers busy for U(0, 3) s, drawn on
    # substream 3 of the seed in (DAG, server) order. Busy servers spread
    # DAGs over servers, so streams cross links and splitting pays. The
    # commit-once rule is a heuristic, so dpe is not better on every DAG.
    spec = WorkloadSpec(seed=0)
    net = generate_network(spec)
    catalog = build_catalog(net)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(spec.seed, spawn_key=(3,)))
    )
    draws = rng.uniform(0.0, 3.0, size=(spec.n_dags, net.n_servers))
    dpe, passive = [], []
    for record, row in zip(generate_dag_records(spec), draws):
        ready = {server: float(t) for server, t in enumerate(row)}
        aug = record.augmented()
        dpe.append(dpe_embed(aug, net, catalog, ready).makespan)
        passive.append(placement_only_embed(aug, net, catalog, ready=ready).makespan)
    assert sum(dpe) / len(dpe) < sum(passive) / len(passive)
    assert sum(d > p for d, p in zip(dpe, passive)) == 0
    assert sum(d == p for d, p in zip(dpe, passive)) == 99


# ---------------------------------------------------------------------------
# the ready-time contract
# ---------------------------------------------------------------------------


def _contract_case():
    net = generate_network(WorkloadSpec(seed=0, n_servers=4))
    spec = WorkloadSpec(seed=0, n_servers=4, n_dags=1, dag_size_range=(5, 5))
    return generate_dag_records(spec)[0].augmented(), net, build_catalog(net)


def _replay_idle_dpe(aug, net, catalog, ready):
    result = dpe_embed(aug, net, catalog)
    return simulate_embedding(aug, net, result.placements, result.edge_mappings, ready)


READY_READERS = {
    **EMBEDDERS,
    "simulate": _replay_idle_dpe,
    "time-range": lambda aug, net, catalog, ready: validate_time_range(aug, net, ready),
}


@pytest.mark.parametrize("reader", sorted(READY_READERS))
@pytest.mark.parametrize(
    "ready",
    [
        {0: -1.0}, {0: math.nan}, {0: math.inf}, {99: 1.0}, {"0": 1.0}, {0.0: 1.0},
        {True: 1.0}, {0: True}, {0: "1.5"}, {0: 10**400}, [1.0, 2.0], [], 0, "0",
    ],
    ids=[
        "negative", "nan", "inf", "unknown-server", "string-key", "float-key",
        "bool-key", "bool-value", "string-value", "past-the-floats", "list",
        "empty-list", "zero", "string",
    ],
)
def test_every_reader_rejects_a_malformed_ready_map(reader, ready):
    aug, net, catalog = _contract_case()
    with pytest.raises(ValidationError, match="ready"):
        READY_READERS[reader](aug, net, catalog, ready)


def _bits(result):
    """An embedding with every float as its hex string."""
    mappings = {
        edge: (m.same_server, m.paths, [z.hex() for z in m.allocations])
        for edge, m in result.edge_mappings.items()
    }
    finish = {f: t.hex() for f, t in result.finish_times.items()}
    return result.placements, mappings, finish, result.makespan.hex()


@pytest.mark.parametrize("algo", sorted(EMBEDDERS))
def test_an_all_zero_ready_map_embeds_like_none(algo):
    aug, net, catalog = _contract_case()
    zeros = {server: 0.0 for server in range(net.n_servers)}
    embed = EMBEDDERS[algo]
    assert _bits(embed(aug, net, catalog, zeros)) == _bits(embed(aug, net, catalog, None))


@pytest.mark.parametrize("algo", ["brute", "heft", "placement-only"])
def test_finish_times_past_the_float_range_place_on_server_0(algo):
    # an entry of 1e300 flops ready at the largest float finishes at inf on
    # either server; every embedder then keeps server 0, as the dynamic
    # program's argmin does, and the DP's numpy rows overflow without a
    # warning (an error under this suite's warning filter)
    net = two_server_line()
    aug = chain_dag([1e300, 1.0], sizes=[1.0])
    ready = {0: sys.float_info.max, 1: sys.float_info.max}
    catalog = build_catalog(net)
    dp = dpe_embed(aug, net, catalog, ready)
    result = EMBEDDERS[algo](aug, net, catalog, ready)
    assert result.placements == dp.placements == {0: 0, 1: 0, 2: 0}
    assert result.makespan == dp.makespan == math.inf


# ---------------------------------------------------------------------------
# agreement with the exhaustive oracle
# ---------------------------------------------------------------------------


def test_matches_brute_force_on_out_trees(rng):
    # With out-degree <= 1 everywhere, no commit is ever needed and the
    # recurrence is exact: the DP must equal the exhaustive optimum.
    for _ in range(20):
        net = small_random_network(rng)
        aug = random_out_tree(rng)
        catalog = build_catalog(net)
        dp = dpe_embed(aug, net, catalog)
        brute = brute_force_embed(aug, net, catalog)
        assert dp.makespan == pytest.approx(brute.makespan, rel=REL)


def test_never_beats_brute_force_on_general_dags(rng):
    for _ in range(20):
        net = small_random_network(rng)
        aug = random_general_dag(rng)
        catalog = build_catalog(net)
        dp = dpe_embed(aug, net, catalog)
        brute = brute_force_embed(aug, net, catalog)
        assert dp.makespan >= brute.makespan * (1 - REL)


def test_never_beats_brute_force_on_busy_clusters(rng):
    # Ready offsets defeat the all-on-one-server optimum, so fan-out
    # commitments and per-edge transits actually steer the result here.
    for _ in range(20):
        net = small_random_network(rng)
        aug = random_general_dag(rng)
        ready = {s: float(rng.uniform(0.0, 5.0)) for s in range(net.n_servers)}
        catalog = build_catalog(net)
        dp = dpe_embed(aug, net, catalog, ready)
        brute = brute_force_embed(aug, net, catalog, ready)
        assert dp.makespan >= brute.makespan * (1 - REL)
        finish, makespan = simulate_embedding(
            aug, net, dp.placements, dp.edge_mappings, ready
        )
        assert makespan == pytest.approx(dp.makespan, rel=REL)


def test_every_producer_replays_to_its_own_makespan(rng):
    for _ in range(10):
        net = small_random_network(rng)
        aug = random_general_dag(rng)
        catalog = build_catalog(net)
        for result in (
            dpe_embed(aug, net, catalog),
            brute_force_embed(aug, net, catalog),
            placement_only_embed(aug, net, catalog),
        ):
            finish, makespan = simulate_embedding(
                aug, net, result.placements, result.edge_mappings
            )
            assert makespan == pytest.approx(result.makespan, rel=REL)
            for fid, t in result.finish_times.items():
                assert finish[fid] == pytest.approx(t, rel=REL)


def test_adding_a_link_never_hurts_chains(rng):
    # More routes mean every transit weakly drops; exact on chains.
    aug = chain_dag([3.0, 5.0, 2.0], sizes=[4.0, 6.0], dst_out=2.0)
    sparse = make_network(
        [Server(0, 1.0), Server(1, 3.0), Server(2, 2.0)],
        [Link(0, 0, 1, 1.0), Link(1, 1, 2, 1.0)],
    )
    dense = make_network(
        [Server(0, 1.0), Server(1, 3.0), Server(2, 2.0)],
        [Link(0, 0, 1, 1.0), Link(1, 1, 2, 1.0), Link(2, 0, 2, 2.0)],
    )
    before = dpe_embed(aug, sparse, build_catalog(sparse)).makespan
    after = dpe_embed(aug, dense, build_catalog(dense)).makespan
    assert after <= before * (1 + REL)


# ---------------------------------------------------------------------------
# exhaustive-search guard rails
# ---------------------------------------------------------------------------


def test_brute_force_rejects_oversized_search():
    net = complete_network(4)
    aug = chain_dag([1.0] * 10, sizes=[1.0] * 9)  # 11 functions with collector
    with pytest.raises(
        EdgeEmbedError,
        match=f"{4**11} placement vectors exceed the exhaustive-search limit",
    ):
        brute_force_embed(aug, net, build_catalog(net))


def test_embedding_json_rendering():
    aug, net, placements, mappings, expected = worked_example()
    finish, makespan = simulate_embedding(aug, net, placements, mappings)
    from edge_embed import EmbeddingResult

    doc = embedding_to_json(
        EmbeddingResult(
            placements=placements,
            edge_mappings=mappings,
            finish_times=finish,
            makespan=makespan,
        )
    )
    assert doc["makespan"] == expected
    assert doc["placements"] == {"0": 0, "1": 1, "2": 2, "3": 2}
    first_edge = doc["edges"][0]
    assert first_edge["src"] == 0 and first_edge["dst"] == 1
    assert first_edge["paths"] == [[0, 1], [0, 3, 1]]
    assert first_edge["z"] == [1.5, 3.5]
    last_edge = doc["edges"][-1]
    assert last_edge["same_server"] and last_edge["paths"] == []
