"""Baseline scheduler tests: passive routes, rank table, list scheduling."""

from __future__ import annotations

import pytest

from edge_embed import (
    FunctionNode,
    Link,
    Server,
    StreamEdge,
    WorkloadDag,
    WorkloadSpec,
    augment_dummy_tail,
    brute_force_embed,
    build_catalog,
    dpe_embed,
    generate_dag_records,
    generate_network,
    heft_schedule,
    make_network,
    passive_routes,
    placement_only_embed,
    simulate_embedding,
    validate_network,
)
from edge_embed.baselines import _upward_rank
from edge_embed.bench import ALGORITHMS
from edge_embed.embedder import _processing_table

from conftest import (
    chain_dag,
    complete_network,
    random_general_dag,
    small_random_network,
    triangle_network,
)

REL = 1e-9


# ---------------------------------------------------------------------------
# passive routing
# ---------------------------------------------------------------------------


def test_passive_route_prefers_cheapest_path():
    # triangle: direct 0-1 costs 1.0 s/bit, detour 0-2-1 costs 0.75 s/bit
    net = triangle_network()
    routes = passive_routes(build_catalog(net))
    assert routes.cheapest_path(0, 1).nodes == (0, 2, 1)
    assert routes.cheapest_coefficient[0, 1] == 0.75
    assert routes.cheapest_coefficient[1, 1] == 0.0


def test_passive_route_tie_goes_to_canonical_first():
    # direct 0-1 and detour 0-2-1 both cost exactly 1.0 s/bit
    net = make_network(
        [Server(0, 1.0), Server(1, 1.0), Server(2, 1.0)],
        [Link(0, 0, 1, 1.0), Link(1, 0, 2, 2.0), Link(2, 1, 2, 2.0)],
    )
    validate_network(net)
    routes = passive_routes(build_catalog(net))
    assert routes.cheapest_coefficient[0, 1] == 1.0
    assert routes.cheapest_path(0, 1).nodes == (0, 1)  # shorter path wins the tie
    # the same tie on 1-2, where node order alone puts the detour 1-0-2 first
    net = make_network(
        [Server(0, 1.0), Server(1, 1.0), Server(2, 1.0)],
        [Link(0, 0, 1, 2.0), Link(1, 0, 2, 2.0), Link(2, 1, 2, 1.0)],
    )
    validate_network(net)
    routes = passive_routes(build_catalog(net))
    assert routes.cheapest_coefficient[1, 2] == 1.0
    assert routes.cheapest_path(1, 2).nodes == (1, 2)


def test_passive_route_equal_length_tie_goes_to_node_order():
    # square 0-1-3 / 0-2-3: both two-link routes cost exactly 2.0 s/bit
    net = make_network(
        [Server(i, 1.0) for i in range(4)],
        [Link(0, 0, 1, 1.0), Link(1, 0, 2, 1.0), Link(2, 1, 3, 1.0), Link(3, 2, 3, 1.0)],
    )
    validate_network(net)
    routes = passive_routes(build_catalog(net))
    assert routes.cheapest_coefficient[0, 3] == 2.0
    assert routes.cheapest_path(0, 3).nodes == (0, 1, 3)  # lexicographically first
    assert routes.cheapest_path(0, 3).link_ids == (0, 2)
    assert routes.cheapest_path(3, 0).nodes == (3, 1, 0)


def test_passive_routes_cover_all_ordered_pairs():
    net = complete_network(4, throughput=2.0)
    routes = passive_routes(build_catalog(net))
    for u in range(4):
        for v in range(4):
            if u != v:
                assert routes.cheapest_path(u, v).nodes[0] == u
                assert routes.cheapest_path(u, v).nodes[-1] == v
                assert routes.cheapest_coefficient[u, v] == 0.5  # direct link is cheapest


# ---------------------------------------------------------------------------
# rank table
# ---------------------------------------------------------------------------


def test_rank_table_hand_values():
    # two servers 1 and 3 flop/s; one link at 2 bit/s (0.5 s/bit)
    net = make_network([Server(0, 1.0), Server(1, 3.0)], [Link(0, 0, 1, 2.0)])
    aug = chain_dag([3.0, 6.0], sizes=[4.0], dst_out=2.0)
    routes = passive_routes(build_catalog(net))
    procs = _processing_table(aug, net).tolist()
    rank = _upward_rank(aug, procs, routes.cheapest_coefficient.tolist())
    # mean exec time: mean of c/psi over both servers (2.0, 4.0, 0.0); mean
    # transfer: size * mean coefficient over all 4 ordered pairs
    mean_coeff = (0.5 + 0.5) / 4
    # upward rank accumulates along the chain, collector ranks 0
    assert rank[aug.dummy_id] == 0.0
    expect_r1 = 4.0 + 2.0 * mean_coeff
    assert rank[1] == pytest.approx(expect_r1, rel=REL)
    assert rank[0] == pytest.approx(
        2.0 + 4.0 * mean_coeff + expect_r1, rel=REL
    )


def test_rank_decreases_along_every_edge(rng):
    for _ in range(10):
        net = small_random_network(rng)
        aug = random_general_dag(rng)
        routes = passive_routes(build_catalog(net))
        procs = _processing_table(aug, net).tolist()
        rank = _upward_rank(aug, procs, routes.cheapest_coefficient.tolist())
        for e in aug.edges:
            assert rank[e.src] > rank[e.dst]
        # the collector always ranks last
        assert min(rank) == rank[aug.dummy_id]


# ---------------------------------------------------------------------------
# list scheduling
# ---------------------------------------------------------------------------


def test_heft_two_server_chain_hand_case():
    # both functions prefer the 2 flop/s server; comm is nearly free, so
    # the schedule is 0.5 s + 0.5 s back to back on server 1.
    net = make_network([Server(0, 1.0), Server(1, 2.0)], [Link(0, 0, 1, 100.0)])
    aug = chain_dag([1.0, 1.0], sizes=[1.0], dst_out=1.0)
    routes = passive_routes(build_catalog(net))
    result = heft_schedule(aug, net, routes)
    assert result.placements[0] == 1
    assert result.placements[1] == 1
    assert result.makespan == 1.0
    assert result.finish_times[0] == 0.5


def test_heft_serializes_shared_server():
    # one server: two parallel 2-flop functions cannot overlap, so the
    # makespan is the serial sum 1 + 2 + 2 = 5 seconds.
    net = make_network([Server(0, 1.0)], [])
    validate_network(net)
    dag = WorkloadDag(
        functions=(FunctionNode(0, 1.0), FunctionNode(1, 2.0), FunctionNode(2, 2.0)),
        edges=(StreamEdge(0, 1, 1.0), StreamEdge(0, 2, 1.0)),
    )
    aug = augment_dummy_tail(dag, {1: 1.0, 2: 1.0})
    routes = passive_routes(build_catalog(net))
    result = heft_schedule(aug, net, routes)
    assert result.makespan == 5.0


def test_heft_ties_keep_the_smallest_server_id():
    # on three identical servers every placement of the chain finishes at
    # the same time, so each function stays on server 0
    net = complete_network(3)
    aug = chain_dag([1.0, 2.0], sizes=[1.0], dst_out=1.0)
    result = heft_schedule(aug, net, passive_routes(build_catalog(net)))
    assert result.placements == {0: 0, 1: 0, 2: 0}
    assert result.makespan == 3.0


def test_heft_inserts_into_a_gap_it_fills_exactly():
    # server 1 idles until function 3's input arrives from server 0 at 3 s;
    # function 2, ranked after 3 and 3 s long, fills that gap to the end
    net = make_network([Server(0, 1.0), Server(1, 1.0)], [Link(0, 0, 1, 1.0)])
    dag = WorkloadDag(
        functions=tuple(FunctionNode(i, f) for i, f in enumerate([1.0, 4.0, 3.0, 4.0])),
        edges=(StreamEdge(0, 1, 4.0), StreamEdge(0, 3, 2.0)),
    )
    aug = augment_dummy_tail(dag, {1: 1.0, 2: 1.0, 3: 1.0})
    result = heft_schedule(aug, net, passive_routes(build_catalog(net)))
    assert result.placements == {0: 0, 1: 0, 2: 1, 3: 1, 4: 1}
    assert result.finish_times == {0: 1.0, 1: 5.0, 2: 3.0, 3: 7.0, 4: 7.0}


def test_heft_delays_an_entry_to_its_servers_ready_time():
    # the hand case's chain with the fast server 1 busy until 0.25 s: the
    # entry still takes it, 0.25 s late, and the chain follows back to back
    net = make_network([Server(0, 1.0), Server(1, 2.0)], [Link(0, 0, 1, 100.0)])
    aug = chain_dag([1.0, 1.0], sizes=[1.0], dst_out=1.0)
    routes = passive_routes(build_catalog(net))
    result = heft_schedule(aug, net, routes, {1: 0.25})
    assert result.placements == {0: 1, 1: 1, 2: 1}
    assert result.finish_times == {0: 0.75, 1: 1.25, 2: 1.25}
    # busy until 1 s, server 1 would finish the entry after server 0 does
    assert heft_schedule(aug, net, routes, {1: 1.0}).placements[0] == 0


def test_heft_replays_no_later_than_its_schedule_on_busy_servers(rng):
    # the replay drops server exclusivity, so it can only finish earlier
    for _ in range(10):
        net = small_random_network(rng)
        aug = random_general_dag(rng)
        ready = {s: float(rng.uniform(0.0, 5.0)) for s in range(net.n_servers)}
        result = heft_schedule(aug, net, passive_routes(build_catalog(net)), ready)
        finish, _ = simulate_embedding(
            aug, net, result.placements, result.edge_mappings, ready
        )
        for fid, t in finish.items():
            assert t <= result.finish_times[fid] * (1 + REL)
            if not aug.stream_table[0][fid]:
                server = net.servers[result.placements[fid]]
                proc = aug.functions[aug.position[fid]].flops / server.psi
                assert result.finish_times[fid] >= ready[server.id] + proc


def test_heft_respects_exclusivity_and_precedence(rng):
    for _ in range(10):
        net = small_random_network(rng)
        aug = random_general_dag(rng)
        routes = passive_routes(build_catalog(net))
        result = heft_schedule(aug, net, routes)
        starts = {
            fid: result.finish_times[fid]
            - aug.functions[aug.position[fid]].flops / net.servers[result.placements[fid]].psi
            for fid in result.placements
        }
        # no two functions overlap on a shared server
        by_server: dict[int, list[tuple[float, float]]] = {}
        for fid, server in result.placements.items():
            by_server.setdefault(server, []).append(
                (starts[fid], result.finish_times[fid])
            )
        for intervals in by_server.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9
        # every input has fully arrived before its consumer starts
        for e in aug.edges:
            comm = e.size * routes.cheapest_coefficient[
                result.placements[e.src], result.placements[e.dst]
            ]
            assert starts[e.dst] >= result.finish_times[e.src] + comm - 1e-9


# ---------------------------------------------------------------------------
# cross-algorithm agreement and ordering
# ---------------------------------------------------------------------------


def test_all_algorithms_agree_on_single_server_chain():
    # one server leaves no choices: every scheduler must produce the plain
    # sum of processing times, 9 flops at 2 flop/s plus a free collector.
    net = make_network([Server(0, 2.0)], [])
    validate_network(net)
    aug = chain_dag([2.0, 4.0, 3.0], sizes=[1.0, 1.0], dst_out=1.0)
    catalog = build_catalog(net)
    routes = passive_routes(catalog)
    expected = (2.0 + 4.0 + 3.0) / 2.0
    assert dpe_embed(aug, net, catalog).makespan == pytest.approx(expected, rel=REL)
    assert placement_only_embed(aug, net, catalog).makespan == pytest.approx(
        expected, rel=REL
    )
    assert heft_schedule(aug, net, routes).makespan == pytest.approx(expected, rel=REL)


def test_no_algorithm_beats_the_exhaustive_optimum(rng):
    # any feasible embedding is lower-bounded by the exhaustive search
    for _ in range(15):
        net = small_random_network(rng)
        aug = random_general_dag(rng)
        catalog = build_catalog(net)
        routes = passive_routes(catalog)
        floor = brute_force_embed(aug, net, catalog).makespan
        assert dpe_embed(aug, net, catalog).makespan >= floor * (1 - REL)
        assert placement_only_embed(aug, net, catalog).makespan >= floor * (1 - REL)
        assert heft_schedule(aug, net, routes).makespan >= floor * (1 - REL)


def test_placement_only_replays_consistently(rng):
    for _ in range(10):
        net = small_random_network(rng)
        aug = random_general_dag(rng)
        catalog = build_catalog(net)
        busy = {s: 1.5 * s for s in range(net.n_servers)}
        for ready in (None, busy):
            result = placement_only_embed(aug, net, catalog, ready=ready)
            finish, makespan = simulate_embedding(
                aug, net, result.placements, result.edge_mappings, ready
            )
            assert makespan == pytest.approx(result.makespan, rel=REL)
        # whole streams ride single paths: one allocation per routed edge
        for mapping in result.edge_mappings.values():
            if not mapping.same_server:
                assert len(mapping.paths) == 1
                assert len(mapping.allocations) == 1


def test_splitting_never_loses_to_passive_routing_per_transfer(rng):
    # the split bottleneck is pointwise <= the best single path's time
    for _ in range(10):
        net = small_random_network(rng)
        catalog = build_catalog(net)
        routes = passive_routes(catalog)
        for u in range(net.n_servers):
            for v in range(net.n_servers):
                if u == v:
                    continue
                bits = 3.5
                split = bits / catalog.inv_coeff_sum[u, v]
                passive = bits * routes.cheapest_coefficient[u, v]
                assert split <= passive * (1 + REL)


def test_benchmark_call_shapes_match_the_algorithm_table():
    # benchmark/run.py still calls the baselines by position with the
    # catalog's pass-through; it must measure what bench.ALGORITHMS runs
    spec = WorkloadSpec(seed=0)
    net = generate_network(spec)
    catalog = build_catalog(net)
    routes = passive_routes(catalog)
    assert routes is catalog
    assert catalog.total_paths == catalog.path_count.sum()

    def key(result):
        finish = sorted((f, t.hex()) for f, t in result.finish_times.items())
        return result.placements, finish, result.makespan.hex(), result.edge_mappings

    for record in generate_dag_records(spec):
        aug = record.augmented()
        assert key(placement_only_embed(aug, net, catalog, routes)) == key(
            ALGORITHMS["placement-only"](aug, net, catalog)
        )
        assert key(heft_schedule(aug, net, routes)) == key(
            ALGORITHMS["heft"](aug, net, catalog)
        )
