"""Path enumeration tests with an independent permutation-based oracle."""

from __future__ import annotations

import hashlib
import math
import sys
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from edge_embed import (
    EdgeEmbedError,
    Link,
    PathCatalog,
    PathExplosionError,
    Server,
    SimplePath,
    SplitProblem,
    ValidationError,
    WorkloadSpec,
    build_catalog,
    dpe_embed,
    enumerate_simple_paths,
    generate_dag_records,
    generate_network,
    heft_schedule,
    make_network,
    optimal_split,
    path_coefficient,
    resolve_path_cap,
    validate_network,
)
from edge_embed import pathfind
from edge_embed.pathfind import DEFAULT_PATH_CAP, PATH_CAP_ENV_VAR
from edge_embed.splitter import _equalize

from conftest import (
    complete_network,
    core_and_leaf_network,
    small_random_network,
    triangle_network,
)


# ---------------------------------------------------------------------------
# independent oracle: try every ordering of every intermediate subset
# ---------------------------------------------------------------------------


def oracle_simple_paths(net, src: int, dst: int) -> set[tuple[int, ...]]:
    """All simple src->dst node sequences, found by brute permutation."""
    pair_ok = set()
    for link in net.links:
        pair_ok.add((link.u, link.v))
        pair_ok.add((link.v, link.u))
    others = [n for n in range(net.n_servers) if n not in (src, dst)]
    found = set()
    for r in range(len(others) + 1):
        for mid in permutations(others, r):
            nodes = (src, *mid, dst)
            if all(p in pair_ok for p in zip(nodes, nodes[1:])):
                found.add(nodes)
    return found


def oracle_complete_count(n: int) -> int:
    """Paths between a fixed pair of K_n: sum over r of P(n-2, r)."""
    return sum(math.perm(n - 2, r) for r in range(n - 1))


def sum_left(values) -> float:
    """Floats added left to right, one rounding each: builtin sum compensates
    from Python 3.12 on, so it is no oracle for the catalog's bits."""
    total = 0.0
    for x in values:
        total += x
    return total


# ---------------------------------------------------------------------------
# enumeration correctness
# ---------------------------------------------------------------------------


def test_triangle_paths_match_oracle_and_order():
    net = triangle_network()
    paths = enumerate_simple_paths(net, 0, 1)
    assert [p.nodes for p in paths] == [(0, 1), (0, 2, 1)]
    assert {p.nodes for p in paths} == oracle_simple_paths(net, 0, 1)
    # link ids line up with consecutive node hops
    assert paths[0].link_ids == (0,)
    assert paths[1].link_ids == (2, 1)


def irregular_network():
    """A 5-server network that is neither a tree nor complete."""
    net = make_network(
        [Server(i, 1.0) for i in range(5)],
        [
            Link(0, 0, 1, 1.0),
            Link(1, 0, 2, 1.0),
            Link(2, 1, 2, 1.0),
            Link(3, 1, 3, 1.0),
            Link(4, 2, 4, 1.0),
            Link(5, 3, 4, 1.0),
        ],
    )
    validate_network(net)
    return net


def test_enumeration_matches_oracle_on_irregular_network():
    net = irregular_network()
    for src in range(5):
        for dst in range(5):
            if src == dst:
                continue
            got = [p.nodes for p in enumerate_simple_paths(net, src, dst)]
            assert set(got) == oracle_simple_paths(net, src, dst)
            assert len(got) == len(set(got))
            # canonical order: shorter first, then lexicographic
            assert got == sorted(got, key=lambda ns: (len(ns), ns))


@pytest.mark.parametrize(
    "n,expected",
    [(2, 1), (3, 2), (4, 5), (5, 16), (6, 65), (7, 326)],
)
def test_complete_network_pair_counts(n, expected):
    assert oracle_complete_count(n) == expected  # cross-check the constant
    net = complete_network(n)
    paths = enumerate_simple_paths(net, 0, 1)
    assert len(paths) == expected
    assert {p.nodes for p in paths} == oracle_simple_paths(net, 0, 1)


def test_path_reversal_bijection():
    # reversing every 0->1 path yields exactly the 1->0 paths
    net = complete_network(5)
    fwd = {tuple(reversed(p.nodes)) for p in enumerate_simple_paths(net, 0, 1)}
    bwd = {p.nodes for p in enumerate_simple_paths(net, 1, 0)}
    assert fwd == bwd


@pytest.mark.parametrize(
    "ends", [(0.5, 1), (True, 2), (0, "1"), (None, 1), (0.0, 1), (0, [1]), (0, 6), (-1, 1)]
)
def test_path_ends_must_be_server_ids(ends):
    # the listing indexes its table and route bitmask by server id, where a
    # bool or an integral float would pass for an int
    net = generate_network(WorkloadSpec(seed=0, n_servers=6))
    with pytest.raises(ValidationError, match="is not in the network"):
        enumerate_simple_paths(net, *ends)
    with pytest.raises(ValidationError, match="is not in the network"):
        build_catalog(net).pair_split(*ends)


def test_same_pair_is_rejected():
    net = triangle_network()
    with pytest.raises(
        EdgeEmbedError, match="no paths requested between server 1 and itself"
    ):
        enumerate_simple_paths(net, 1, 1)


# ---------------------------------------------------------------------------
# coefficients and transit
# ---------------------------------------------------------------------------


def test_simple_path_needs_one_more_server_than_links():
    assert SimplePath((0, 1), (0,)).link_ids == (0,)
    for nodes, link_ids in [((0, 1), ()), ((0,), (0,)), ((), ())]:
        with pytest.raises(ValueError, match=r"^a path over k links visits k\+1 servers$"):
            SimplePath(nodes, link_ids)


def test_path_coefficient_sums_inverse_throughputs():
    net = make_network(
        [Server(0, 1.0), Server(1, 1.0), Server(2, 1.0)],
        [Link(0, 0, 1, 2.0e7), Link(1, 1, 2, 4.0e7)],
    )
    validate_network(net)
    (path,) = enumerate_simple_paths(net, 0, 2)
    assert path_coefficient(path, net) == 7.5e-8  # 1/2e7 + 1/4e7, exact in floats


def test_catalog_transit_aggregates_parallel_paths():
    net = triangle_network()
    catalog = build_catalog(net)
    # pair (0, 1): direct coeff 1.0, detour coeff 1/4 + 1/2 = 0.75
    assert catalog.pair_split(0, 1)[1] == (1.0, 0.75)
    inv_sum = 1 / 1.0 + 1 / 0.75
    assert 7.0 / catalog.inv_coeff_sum[0, 1] == pytest.approx(7.0 / inv_sum, rel=1e-12)
    assert 7.0 / catalog.inv_coeff_sum[1, 0] == pytest.approx(7.0 / inv_sum, rel=1e-12)
    assert 123.0 / catalog.inv_coeff_sum[2, 2] == 0.0


def test_catalog_covers_all_ordered_pairs():
    net = complete_network(4, throughput=3.0)
    catalog = build_catalog(net)
    assert catalog.total_paths == 12 * 5  # 12 ordered pairs, 5 paths each
    for u in range(4):
        for v in range(4):
            if u != v:
                assert len(catalog.pair_split(u, v)[0]) == 5


def _oracle_networks():
    rng = np.random.default_rng(7)
    nets = [small_random_network(rng, max_servers=6) for _ in range(6)]
    return nets + [
        complete_network(5, throughput=3.0),
        irregular_network(),
        triangle_network(),
        generate_network(WorkloadSpec(seed=0, n_servers=6)),  # the desk network
    ]


@pytest.mark.parametrize("net", _oracle_networks())
def test_catalog_aggregates_match_oracle(net):
    throughput = {}
    for link in net.links:
        throughput[(link.u, link.v)] = throughput[(link.v, link.u)] = link.throughput
    catalog = build_catalog(net)
    total = 0
    for u in range(net.n_servers):
        for v in range(net.n_servers):
            if u == v:
                assert catalog.inv_coeff_sum[u, v] == math.inf
                assert catalog.cheapest_coefficient[u, v] == 0.0
                continue
            want = sorted(oracle_simple_paths(net, u, v), key=lambda ns: (len(ns), ns))
            total += len(want)
            paths, listed_coeffs = catalog.pair_split(u, v)[:2]
            assert [p.nodes for p in paths] == want
            coeffs = tuple(path_coefficient(p, net) for p in paths)
            assert listed_coeffs == coeffs
            # the same floats from the oracle's node sequences alone
            oracle_coeffs = []
            for nodes in want:
                total_inv = 0.0
                for hop in zip(nodes, nodes[1:]):
                    total_inv += 1.0 / throughput[hop]
                oracle_coeffs.append(total_inv)
            assert coeffs == tuple(oracle_coeffs)
            assert catalog.inv_coeff_sum[(u, v)] == sum_left(1.0 / a for a in coeffs)
            assert catalog.cheapest_coefficient[u, v] == min(oracle_coeffs)
    assert catalog.total_paths == total


# the oracle networks (the desk network among them) and wide-busy's
@pytest.mark.parametrize(
    "net", _oracle_networks() + [generate_network(WorkloadSpec(seed=0, n_servers=10))]
)
def test_cheapest_is_the_first_cheapest_path_of_the_listing(net):
    # the catalog keeps each pair's least coefficient as it aggregates; the
    # pair listing expands the pair on its own, so its first minimum checks
    # the path cheapest_path builds from that coefficient
    catalog = build_catalog(net)
    for u in range(net.n_servers):
        for v in range(net.n_servers):
            if u == v:
                continue
            paths, coeffs = catalog.pair_split(u, v)[:2]
            first = coeffs.index(min(coeffs))
            assert catalog.cheapest_path(u, v) == paths[first]
            assert catalog.cheapest_path(u, v) is catalog.cheapest_path(u, v)  # kept
            assert catalog.cheapest_coefficient[u, v] == coeffs[first]


def test_cheapest_path_of_an_all_inf_pair_is_its_first_path():
    # a ring of links at 1e-308 bit/s: one link costs 1e308 s/bit, two
    # overflow to inf, so both paths from 0 to 2 cost inf and the first wins
    net = make_network(
        [Server(i, 1.0) for i in range(4)],
        [Link(k, k, (k + 1) % 4, 1e-308) for k in range(4)],
    )
    validate_network(net)
    catalog = build_catalog(net)
    assert catalog.pair_split(0, 2)[1] == (math.inf, math.inf)
    assert catalog.cheapest_coefficient[0, 2] == math.inf
    assert catalog.cheapest_path(0, 2).nodes == (0, 1, 2)
    assert catalog.cheapest_path(2, 0).nodes == (2, 1, 0)
    assert catalog.cheapest_path(0, 1).nodes == (0, 1)  # one link: finite


def test_cheapest_path_rejects_ends_as_pair_split_does():
    catalog = build_catalog(triangle_network())
    for u, v in ((0, 3), (-1, 1), (True, 1), (0, 1.0), ([0], 1)):
        with pytest.raises(ValidationError):
            catalog.pair_split(u, v)
        with pytest.raises(ValidationError):
            catalog.cheapest_path(u, v)
    with pytest.raises(EdgeEmbedError, match="itself"):
        catalog.cheapest_path(1, 1)
    # only an invalid network, here one without links, has no cheapest path
    catalog = build_catalog(make_network([Server(0, 1.0), Server(1, 1.0)], []))
    with pytest.raises(ValidationError, match="invalid network$"):
        catalog.cheapest_path(0, 1)


def test_cheapest_paths_are_built_only_for_the_pairs_read(monkeypatch):
    net = generate_network(WorkloadSpec(seed=0))  # the desk network
    records = generate_dag_records(WorkloadSpec(seed=0, n_dags=40))
    augs = [r.augmented() for r in records]
    catalog = build_catalog(net)

    def unread(self, u, v):
        raise AssertionError("dpe read a cheapest path")

    # dpe splits every stream, so it never reads a cheapest path
    with monkeypatch.context() as patch:
        patch.setattr(PathCatalog, "cheapest_path", unread)
        for aug in augs:
            dpe_embed(aug, net, catalog)
            dpe_embed(aug, net, catalog, ready={0: 1.0, 2: 0.5})
    # heft lists no pair, so each expansion it starts builds a cheapest path
    built = []
    paths_to = pathfind._paths_to

    def spy(adjacency, src, dst, cap):
        built.append((src, dst))
        return paths_to(adjacency, src, dst, cap)

    monkeypatch.setattr(pathfind, "_paths_to", spy)
    routed = set()
    for aug in augs:
        result = heft_schedule(aug, net, catalog)
        for (f, g), mapping in result.edge_mappings.items():
            m, n = result.placements[f], result.placements[g]
            if m != n:
                routed.add((m, n))
                assert mapping.paths == (catalog.cheapest_path(m, n),)
    assert routed and len(routed) < net.n_servers * (net.n_servers - 1)
    assert sorted(built) == sorted(routed)  # each pair built once


# sha256 over the wide-busy catalog: both matrices and every pair's walk
# count, cheapest path and, for three pairs, the listed paths, floats by
# float.hex. Recorded once; a change to the walk or the catalog must keep it.
WIDE_CATALOG_SHA256 = "1bc50b36de83e08e78976a87301dd981e4523af8b75cf536b25d9f6eefef9e9b"


def test_wide_catalog_is_pinned():
    # wide-busy's 10 servers hold 52,478 paths, past the permutation oracle
    net = generate_network(WorkloadSpec(seed=0, n_servers=10))
    catalog = build_catalog(net)
    digest = hashlib.sha256()
    for matrix in (catalog.inv_coeff_sum, catalog.cheapest_coefficient):
        for value in matrix.ravel().tolist():
            digest.update(value.hex().encode())
    n = net.n_servers
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for u, v in pairs:
        digest.update(f"{u},{v}:{catalog.path_count[u, v]};".encode())
    for pair in pairs:
        path = catalog.cheapest_path(*pair)
        digest.update(f"{pair}:{path.nodes}{path.link_ids};".encode())
    for u, v in ((0, 9), (4, 7), (9, 2)):
        paths, coeffs = catalog.pair_split(u, v)[:2]
        for path, coeff in zip(paths, coeffs):
            digest.update(f"{path.nodes}:{coeff.hex()};".encode())
    assert catalog.total_paths == 52478
    assert digest.hexdigest() == WIDE_CATALOG_SHA256


@pytest.mark.parametrize(
    "net",
    [
        generate_network(WorkloadSpec(seed=0)),  # the desk network
        generate_network(WorkloadSpec(seed=0, n_servers=10)),  # wide-busy's
        complete_network(5, throughput=3.0),
    ],
    ids=["desk", "wide-busy", "K5"],
)
def test_split_route_prices_every_pair_like_optimal_split(net):
    # the mapping loop routes a split stream by _equalize on the catalog's
    # terms; optimal_split computes its own terms from the same listing
    catalog = build_catalog(net)
    for u in range(net.n_servers):
        for v in range(net.n_servers):
            if u == v:
                continue
            _, coeffs, *terms = catalog.pair_split(u, v)
            # the DP's pair cost and the split's denominator are one float
            assert float(catalog.inv_coeff_sum[u, v]) == sum_left(1 / a for a in coeffs)
            assert terms[1:] == [max(coeffs), min(coeffs)]
            for bits in (1.0, 7.3e6, 2.9e7):
                tau, allocations = _equalize(coeffs, bits, *terms)
                want = optimal_split(SplitProblem(coeffs, stream_size=bits))
                assert (tau, allocations) == (want.bottleneck_time, want.allocations)


def _two_servers(*throughputs):
    servers = [Server(i, 1.0) for i in range(2 + (len(throughputs) > 1))]
    links = [Link(0, 0, 1, throughputs[0])]
    if len(throughputs) > 1:  # a detour 0-2-1
        links += [Link(1, 0, 2, throughputs[1]), Link(2, 2, 1, throughputs[1])]
    return make_network(servers, links)


@pytest.mark.parametrize(
    "net, bits",
    [
        # tau is finite, but the only allocation tau / A overflows
        (_two_servers(3.542301210811698), sys.float_info.max),
        # the slow detour's share, tau / max(A), underflows to 0 bits
        (_two_servers(1e300, 1e-100), 1.0),
        # one path so slow that tau itself overflows
        (_two_servers(1e-300), 1e9),
        # no path at all: the catalog's inverse sum is 0
        (make_network([Server(0, 1.0), Server(1, 1.0)], []), 1.0),
        *((triangle_network(), bits) for bits in (math.nan, math.inf, 0.0, -1.0)),
    ],
    ids=["tau-over-min", "tau-over-max", "tau", "no-path", "nan", "inf", "zero", "neg"],
)
def test_split_route_raises_what_optimal_split_raises(net, bits):
    catalog = build_catalog(net)
    with pytest.raises(ValidationError) as want:
        optimal_split(SplitProblem(catalog.pair_split(0, 1)[1], stream_size=bits))
    for _ in range(2):  # the pair's first stream and a later one
        _, coeffs, *terms = catalog.pair_split(0, 1)
        with pytest.raises(ValidationError) as got:
            _equalize(coeffs, bits, *terms)
        assert str(got.value) == str(want.value)


def _star(n):
    """n servers, each of 1..n-1 linked to server 0 only."""
    return make_network(
        [Server(i, 1.0) for i in range(n)],
        [Link(i - 1, 0, i, 1.0) for i in range(1, n)],
    )


def test_catalog_peak_memory_stays_small():
    # K_7 has 13692 paths and K_8 109592: the catalog keeps per-pair counts,
    # and only one source's coefficients are alive at a time. The 300-server
    # star's three matrices take 2.1 MiB; a count per pair under a tuple key,
    # or n x n Python lists, would take several times that.
    for net, bound_mb in ((complete_network(7), 1.5), (complete_network(8), 1.0), (_star(300), 4)):
        tracemalloc.start()
        try:
            build_catalog(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, (net.n_servers, peak)


def test_catalog_of_a_large_star():
    # one path per ordered pair, so the catalog's work should follow the
    # 89,700 paths, not n^3 hop buckets
    n = 300
    catalog = build_catalog(_star(n))
    assert catalog.total_paths == n * (n - 1)
    assert np.array_equal(catalog.path_count, 1 - np.eye(n, dtype=np.int64))
    assert catalog.cheapest_path(3, 7).nodes == (3, 0, 7)
    assert catalog.inv_coeff_sum[3, 7] == 0.5
    assert catalog.cheapest_coefficient[0, 5] == 1.0


def test_path_count_is_a_read_only_int_matrix_with_a_zero_diagonal():
    catalog = build_catalog(complete_network(4, throughput=3.0))
    counts = catalog.path_count
    assert counts.dtype == np.int64 and counts.shape == (4, 4)
    assert np.array_equal(counts, 5 - 5 * np.eye(4, dtype=np.int64))
    for matrix in (counts, catalog.inv_coeff_sum, catalog.cheapest_coefficient):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 1] = 0
    # the per-pair view kept for the benchmark's trace reads the same counts
    assert catalog.recursion_calls == {
        (u, v): 5 for u in range(4) for v in range(4) if u != v
    }


def test_pair_paths_are_listed_once_and_match_enumeration():
    net = irregular_network()
    catalog = build_catalog(net)
    first = catalog.pair_split(0, 4)
    assert catalog.pair_split(0, 4) is first
    paths, coeffs = first[:2]
    assert list(paths) == enumerate_simple_paths(net, 0, 4)
    assert coeffs == tuple(path_coefficient(p, net) for p in paths)
    # a same-server pair has no paths, as for enumerate_simple_paths
    with pytest.raises(EdgeEmbedError, match="between server 2 and itself"):
        catalog.pair_split(2, 2)


# ---------------------------------------------------------------------------
# recursion effort and the explosion guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,calls,budget", [(2, 1, 6), (3, 2, 6), (4, 5, 12), (5, 16, 36), (6, 65, 144), (7, 326, 720)])
def test_recursion_calls_within_factorial_budget(n, calls, budget):
    net = complete_network(n)
    catalog = build_catalog(net)
    assert budget == 6 * math.factorial(n - 2)
    assert calls <= budget
    # one walk step lands on v from u per path, the same for every pair of K_n
    want = calls - calls * np.eye(n, dtype=np.int64)
    assert np.array_equal(catalog.path_count, want)


def test_path_cap_triggers_explosion_error(monkeypatch):
    monkeypatch.setenv(PATH_CAP_ENV_VAR, "10")
    net = complete_network(5)
    with pytest.raises(PathExplosionError) as exc:
        build_catalog(net)
    assert exc.value.cap == 10


def test_path_cap_aborts_early_on_large_network(monkeypatch):
    # K_10 holds 109601 paths per ordered pair; a tiny cap must abort fast
    monkeypatch.setenv(PATH_CAP_ENV_VAR, "1000")
    net = complete_network(10)
    with pytest.raises(PathExplosionError):
        build_catalog(net)


def test_path_cap_bounds_the_listing_work(monkeypatch):
    # K_9 plus a leaf on server 0: (0, 9) has one path, but a listing from 0
    # expands it and the 109,600 paths inside the core, and the cap counts all
    net = core_and_leaf_network(9)
    for cap in ("1000", "109600"):
        monkeypatch.setenv(PATH_CAP_ENV_VAR, cap)
        with pytest.raises(PathExplosionError) as exc:
            enumerate_simple_paths(net, 0, 9)
        assert exc.value.cap == int(cap)
    monkeypatch.setenv(PATH_CAP_ENV_VAR, "109601")
    assert [p.nodes for p in enumerate_simple_paths(net, 0, 9)] == [(0, 9)]


def test_catalog_past_cap_raises_before_walking(monkeypatch):
    # K_150 has 150 * 149^2 = 3,330,150 paths of at most two links, past
    # the default cap, so the catalog fails before it builds its table,
    # let alone a level of paths
    monkeypatch.delenv(PATH_CAP_ENV_VAR, raising=False)

    def no_walk(*args, **kwargs):
        raise AssertionError("the catalog walked")

    monkeypatch.setattr(pathfind, "_adjacency", no_walk)
    with pytest.raises(PathExplosionError) as exc:
        build_catalog(complete_network(150))
    assert exc.value.cap == DEFAULT_PATH_CAP


def test_path_cap_raises_iff_the_walk_passes_it(monkeypatch, rng):
    monkeypatch.delenv(PATH_CAP_ENV_VAR, raising=False)
    # drawn before any cap is set: the generator checks the cap too
    nets = [small_random_network(rng, max_servers=6) for _ in range(20)]
    # unvalidated: two links join servers 0 and 1, and a third loops on 1;
    # the walk takes 4 steps, one per link and direction between them,
    # while one step per distinct neighbour takes 2
    nets.append(
        make_network(
            [Server(0, 1.0), Server(1, 1.0)],
            [Link(0, 0, 1, 1.0), Link(1, 0, 1, 2.0), Link(2, 1, 1, 1.0)],
        )
    )
    for net in nets:
        monkeypatch.delenv(PATH_CAP_ENV_VAR, raising=False)
        total = build_catalog(net).total_paths
        for cap in range(total + 2):
            monkeypatch.setenv(PATH_CAP_ENV_VAR, str(cap))
            if total > cap:
                with pytest.raises(PathExplosionError):
                    build_catalog(net)
            else:
                assert build_catalog(net).total_paths == total


def test_resolve_path_cap_precedence(monkeypatch):
    monkeypatch.delenv(PATH_CAP_ENV_VAR, raising=False)
    assert resolve_path_cap() == DEFAULT_PATH_CAP
    monkeypatch.setenv(PATH_CAP_ENV_VAR, "250")
    assert resolve_path_cap() == 250


@pytest.mark.parametrize("value", ["\u0663", "\uff11\uff10"], ids=["arabic-3", "fullwidth-10"])
def test_resolve_path_cap_reads_ascii_digits_only(monkeypatch, value):
    # int() reads both as 3 and 10; the ids of JSON documents reject them too
    monkeypatch.setenv(PATH_CAP_ENV_VAR, value)
    with pytest.raises(ValidationError, match="must be a non-negative integer"):
        resolve_path_cap()


def test_catalog_is_deterministic():
    net = complete_network(5, throughput=2.0)
    a = build_catalog(net)
    b = build_catalog(net)
    assert a.total_paths == b.total_paths
    for u in range(5):
        for v in range(5):
            if u != v:
                a_paths, a_coeffs = a.pair_split(u, v)[:2]
                b_paths, b_coeffs = b.pair_split(u, v)[:2]
                assert [p.nodes for p in a_paths] == [p.nodes for p in b_paths]
                assert a_coeffs == b_coeffs
