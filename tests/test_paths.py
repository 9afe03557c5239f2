"""Path enumeration tests with an independent permutation-based oracle."""

from __future__ import annotations

import math
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
    build_catalog,
    enumerate_simple_paths,
    make_network,
    path_coefficient,
    resolve_path_cap,
    validate_network,
)
from edge_embed.pathfind import DEFAULT_PATH_CAP, PATH_CAP_ENV_VAR

from conftest import complete_network, small_random_network, triangle_network


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


def test_same_pair_is_rejected():
    net = triangle_network()
    with pytest.raises(
        EdgeEmbedError, match="no paths requested between server 1 and itself"
    ):
        enumerate_simple_paths(net, 1, 1)


# ---------------------------------------------------------------------------
# coefficients and transit
# ---------------------------------------------------------------------------


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
    assert catalog.pair_coefficients(0, 1) == (1.0, 0.75)
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
                assert len(catalog.pair_paths(u, v)) == 5


def _oracle_networks():
    rng = np.random.default_rng(7)
    nets = [small_random_network(rng, max_servers=6) for _ in range(6)]
    return nets + [complete_network(5, throughput=3.0), irregular_network(), triangle_network()]


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
            paths = catalog.pair_paths(u, v)
            assert [p.nodes for p in paths] == want
            coeffs = tuple(path_coefficient(p, net) for p in paths)
            assert catalog.pair_coefficients(u, v) == coeffs
            # the same floats from the oracle's node sequences alone
            oracle_coeffs = []
            for nodes in want:
                total_inv = 0.0
                for hop in zip(nodes, nodes[1:]):
                    total_inv += 1.0 / throughput[hop]
                oracle_coeffs.append(total_inv)
            assert coeffs == tuple(oracle_coeffs)
            assert catalog.inv_coeff_sum[(u, v)] == sum(1.0 / a for a in coeffs)
            assert catalog.cheapest_coefficient[u, v] == min(oracle_coeffs)
    assert catalog.total_paths == total


def test_catalog_peak_memory_stays_small():
    net = complete_network(7)
    tracemalloc.start()
    try:
        build_catalog(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 13692 paths: the catalog keeps their coefficients, not SimplePath objects
    assert peak < 1.5 * 2**20


def test_pair_paths_are_listed_once_and_match_enumeration():
    net = irregular_network()
    catalog = build_catalog(net)
    first = catalog.pair_paths(0, 4)
    assert catalog.pair_paths(0, 4) is first
    assert list(first) == enumerate_simple_paths(net, 0, 4)
    with pytest.raises(KeyError):
        catalog.pair_paths(2, 2)


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
    assert len(catalog.recursion_calls) == n * (n - 1)
    for pair_calls in catalog.recursion_calls.values():
        assert pair_calls == calls


def test_path_cap_triggers_explosion_error():
    net = complete_network(5)
    with pytest.raises(PathExplosionError) as exc:
        build_catalog(net, path_cap=10)
    assert exc.value.cap == 10


def test_path_cap_aborts_early_on_large_network():
    # K_10 holds 109601 paths per ordered pair; a tiny cap must abort fast
    net = complete_network(10)
    with pytest.raises(PathExplosionError):
        build_catalog(net, path_cap=1000)


def test_resolve_path_cap_precedence(monkeypatch):
    monkeypatch.delenv(PATH_CAP_ENV_VAR, raising=False)
    assert resolve_path_cap(None) == DEFAULT_PATH_CAP
    monkeypatch.setenv(PATH_CAP_ENV_VAR, "250")
    assert resolve_path_cap(None) == 250
    assert resolve_path_cap(7) == 7  # explicit argument wins over environment


def test_catalog_is_deterministic():
    net = complete_network(5, throughput=2.0)
    a = build_catalog(net)
    b = build_catalog(net)
    assert a.total_paths == b.total_paths
    for u in range(5):
        for v in range(5):
            if u != v:
                assert [p.nodes for p in a.pair_paths(u, v)] == [
                    p.nodes for p in b.pair_paths(u, v)
                ]
                assert a.pair_coefficients(u, v) == b.pair_coefficients(u, v)
