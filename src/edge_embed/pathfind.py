"""Exhaustive simple-path enumeration between server pairs.

Streams may be split across every simple path joining two servers, but
the embedders need much less than the paths themselves: each prices a
server pair from one dense n x n matrix, and only the pairs an embedding
actually uses need their path lists. The catalog therefore walks once from
each source server and fills both matrices, diagonal included:
``inv_coeff_sum`` (``sum(1 / A_k)``, infinite on the diagonal) for ``dpe``
and ``cheapest_coefficient`` (the cheapest path's A, zero on the diagonal)
for the single-path baselines. It also keeps per-pair path counts and the
cheapest path, and lists a pair's paths and their coefficients on first
use.

The walk is depth-first: it pushes a server onto the current route, moves
on to unvisited neighbours in ascending id, and pops on the way back. It
reads one table, built once per catalog or listing, of each server's
neighbours in ascending id with the link id and its inverse throughput,
and flags the servers on the route in a list indexed by server id. It
is exponential by nature; a cap on the number of enumerated paths
(``EDGE_EMBED_PATH_CAP``) turns runaway growth into a clean error instead
of a hopeless run.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import EdgeEmbedError, PathExplosionError, ValidationError
from .model import EdgeNetwork, _sum_left

DEFAULT_PATH_CAP = 10**6
PATH_CAP_ENV_VAR = "EDGE_EMBED_PATH_CAP"


@dataclass(frozen=True)
class SimplePath:
    """A loop-free route: visited servers plus the link ids between them."""

    nodes: tuple[int, ...]
    link_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.link_ids) + 1:
            raise ValueError("a path over k links visits k+1 servers")


def path_coefficient(path: SimplePath, net: EdgeNetwork) -> float:
    """Seconds per bit along ``path``: sum of inverse link throughputs.

    Summed left to right so the value is reproducible bit for bit.
    """
    total = 0.0
    for link_id in path.link_ids:
        total += 1.0 / net.links[link_id].throughput
    return total


def _adjacency(net: EdgeNetwork) -> list[tuple[tuple[int, float, int], ...]]:
    """The walk's table: per server id, ``(neighbour, 1 / throughput, link
    id)`` in ascending neighbour id, the float a step adds to the coefficient."""
    inverse = [1.0 / link.throughput for link in net.links]
    return [
        tuple((node, inverse[link_id], link_id) for node, link_id in net.adjacency[v])
        for v in range(net.n_servers)
    ]


def _walk(
    adjacency: list[tuple[tuple[int, float, int], ...]], src: int, dst: int | None = None
) -> Iterator[tuple[list[int], list[int], float]]:
    """Depth-first walk over the simple paths that leave ``src``, on the
    ``_adjacency`` table; a list of n flags marks the servers on the route.

    Every step lands on one simple path and yields it as ``(nodes,
    link_ids, coefficient)``. The two lists belong to the walk and change
    after the yield: copy them to keep the path. The coefficient is summed
    left to right from the table's floats like ``path_coefficient``, so the
    floats are the same. Neighbours are visited in ascending id, so the
    paths ending at any one server come in lexicographic node order. A path
    that reaches ``dst`` is not extended.
    """
    on_route = [False] * len(adjacency)
    on_route[src] = True
    nodes = [src]
    link_ids: list[int] = []
    coefficients = [0.0]
    branches = [iter(adjacency[src])]
    while branches:
        for node, inverse, link_id in branches[-1]:
            if on_route[node]:
                continue
            coefficient = coefficients[-1] + inverse
            nodes.append(node)
            link_ids.append(link_id)
            coefficients.append(coefficient)
            yield nodes, link_ids, coefficient
            if node != dst:
                on_route[node] = True
                branches.append(iter(adjacency[node]))
                break
            nodes.pop()
            link_ids.pop()
            coefficients.pop()
        else:
            branches.pop()
            on_route[nodes.pop()] = False
            if link_ids:
                link_ids.pop()
                coefficients.pop()


# a pair's paths in canonical order and, index for index, their coefficients
_Listing = tuple[tuple[SimplePath, ...], tuple[float, ...]]
# a listing followed by the pair's split terms (see PathCatalog.pair_split)
_SplitListing = tuple[tuple[SimplePath, ...], tuple[float, ...], float, float, float]


def _list_paths(net: EdgeNetwork, src: int, dst: int) -> _Listing:
    """Every simple path src -> dst and its coefficient, in canonical order.

    Canonical order is (path length, node sequence) ascending, so output
    is stable across runs. Raises PathExplosionError when more than
    ``resolve_path_cap()`` paths exist.
    """
    cap = resolve_path_cap()
    found = []
    for nodes, link_ids, coeff in _walk(_adjacency(net), src, dst):
        if nodes[-1] == dst:
            if len(found) == cap:
                raise PathExplosionError(cap)
            found.append((SimplePath(tuple(nodes), tuple(link_ids)), coeff))
    # the walk meets them in node order, so a stable sort by length suffices
    found.sort(key=lambda listed: len(listed[0].nodes))
    return tuple(path for path, _ in found), tuple(coeff for _, coeff in found)


def _check_ends(net: EdgeNetwork, src, dst) -> None:
    """Raise ValidationError unless both ends are integer server ids of
    ``net`` (a bool is not), and EdgeEmbedError when they are one server."""
    for end in (src, dst):
        is_id = isinstance(end, Integral) and not isinstance(end, bool)
        if not (is_id and 0 <= end < net.n_servers):
            raise ValidationError(
                f"server {end!r} is not in the network ({net.n_servers} servers)"
            )
    if src == dst:
        raise EdgeEmbedError(f"no paths requested between server {src} and itself")


def enumerate_simple_paths(net: EdgeNetwork, src: int, dst: int) -> list[SimplePath]:
    """Every simple path from ``src`` to ``dst`` in canonical order.

    Raises ValidationError when an end is not a server of ``net``,
    EdgeEmbedError when src == dst, and PathExplosionError when more than
    ``resolve_path_cap()`` paths exist.
    """
    _check_ends(net, src, dst)
    return list(_list_paths(net, src, dst)[0])


@dataclass
class PathCatalog:
    """Per ordered server pair: path count, pair costs, cheapest path; the
    one pair-cost table every embedder reads.

    ``recursion_calls[(u, v)]`` counts the walk steps that landed on v
    from u, one per path of the pair, and the ``total_paths`` property sums
    them. ``inv_coeff_sum[u, v]`` holds ``sum(1 / A_k)`` over all paths of
    the pair, the denominator of the bottleneck-equalizing split, and is
    infinite on the diagonal, so ``bits / inv_coeff_sum`` is the split
    transit matrix with free same-server streams. ``cheapest[(u, v)]`` is
    the canonical-first path of least coefficient, which costs
    ``cheapest_coefficient[u, v]`` seconds per bit; that matrix is zero on
    the diagonal. Both matrices are read-only n x n arrays. A pair's paths
    and their coefficients are listed together on first use and memoized
    with the pair's split terms.
    """

    net: EdgeNetwork = field(repr=False)
    recursion_calls: dict[tuple[int, int], int] = field(repr=False)
    inv_coeff_sum: np.ndarray = field(repr=False)
    cheapest: dict[tuple[int, int], SimplePath] = field(repr=False)
    cheapest_coefficient: np.ndarray = field(repr=False)
    _listed: dict[tuple[int, int], _SplitListing] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def total_paths(self) -> int:
        return sum(self.recursion_calls.values())

    def pair_split(self, u: int, v: int) -> _SplitListing:
        """``(paths, coefficients, inv_sum, a_max, a_min)`` for the pair,
        listed once and memoized: the terms ``splitter._equalize`` takes.

        ``inv_sum`` is ``inv_coeff_sum[u, v]``, the same float as the
        listing's 1 / A_k added left to right; ``a_max`` and
        ``a_min`` are the largest and smallest coefficient, as
        ``optimal_split`` computes them. When the pair has no path or a
        coefficient outside (0, inf), which no split accepts, all three are nan.
        Raises what ``enumerate_simple_paths`` raises for ends that are not
        two servers of the network, checked only when the pair is first listed.
        """
        try:
            return self._listed[(u, v)]
        except (KeyError, TypeError):  # not listed yet, or an unhashable end
            pass
        _check_ends(self.net, u, v)
        paths, coefficients = _list_paths(self.net, u, v)
        if coefficients and all(0.0 < a < math.inf for a in coefficients):
            terms = (float(self.inv_coeff_sum[u, v]), max(coefficients), min(coefficients))
        else:
            terms = (math.nan, math.nan, math.nan)
        listing = self._listed[(u, v)] = (paths, coefficients, *terms)
        return listing


def resolve_path_cap() -> int:
    """Path cap: the env var (a non-negative integer, ASCII digits), else the default."""
    env = os.environ.get(PATH_CAP_ENV_VAR)
    if env is None:
        return DEFAULT_PATH_CAP
    if not (env.isascii() and env.strip().isdecimal()):
        raise ValidationError(
            f"{PATH_CAP_ENV_VAR} must be a non-negative integer, got {env!r}"
        )
    return int(env)


def _short_path_count(net: EdgeNetwork) -> int:
    """A lower bound on the walk's steps: its paths of one or two links.

    A server v with k distinct neighbours starts at least k one-link paths
    and is the middle of at least k(k - 1) two-link ones. On a valid
    network (no parallel links, no self-loops) k is v's degree and the
    count, 2|links| + sum k(k - 1), is exact.
    """
    total = 0
    for v, entries in net.adjacency.items():
        k = len({w for w, _ in entries if w != v})
        total += k * k
    return total


def build_catalog(net: EdgeNetwork) -> PathCatalog:
    """Walk from every server of ``net`` into a catalog of all ordered pairs.

    Raises PathExplosionError as soon as the total number of enumerated
    paths, summed across ordered pairs, passes ``resolve_path_cap()``, so
    hopeless networks fail fast; the cap bounds the work of the walk. When
    the paths of at most two links alone pass the cap, it raises before
    the first step, since the walk would reach the same error.
    """
    cap = resolve_path_cap()
    if _short_path_count(net) > cap:
        raise PathExplosionError(cap)
    adjacency = _adjacency(net)
    total_paths = 0
    recursion_calls: dict[tuple[int, int], int] = {}
    cheapest: dict[tuple[int, int], SimplePath] = {}
    n = net.n_servers
    inv_rows, cheapest_rows = [], []
    for u in range(n):
        # by_hops[v][h]: coefficients of the h-link paths u -> v in walk
        # order; read out in ascending h they are in canonical order
        by_hops: list[dict[int, list[float]]] = [{} for _ in range(n)]
        best_coeff = [math.inf] * n
        best_hops = [n] * n
        best_route: list[tuple | None] = [None] * n
        for nodes, link_ids, coeff in _walk(adjacency, u):
            if total_paths == cap:
                raise PathExplosionError(cap)
            total_paths += 1
            v = nodes[-1]
            hops = len(link_ids)
            bucket = by_hops[v].get(hops)
            if bucket is None:
                by_hops[v][hops] = [coeff]
            else:
                bucket.append(coeff)
            # strict on (coefficient, hops): ties keep the path met first
            best = best_coeff[v]
            if coeff < best or (coeff == best and hops < best_hops[v]):
                best_coeff[v] = coeff
                best_hops[v] = hops
                best_route[v] = (tuple(nodes), tuple(link_ids))
        inv_row = [math.inf] * n
        for v in range(n):
            if v == u:
                continue
            buckets = by_hops[v]
            coeffs = [a for hops in sorted(buckets) for a in buckets[hops]]
            recursion_calls[(u, v)] = len(coeffs)
            inv_row[v] = _sum_left(1.0 / a for a in coeffs)
            route = best_route[v]
            if route is not None:
                cheapest[(u, v)] = SimplePath(*route)
        best_coeff[u] = 0.0
        inv_rows.append(inv_row)
        cheapest_rows.append(best_coeff)
    # reshaped so that a network without servers still gets 0 x 0 matrices
    inv_sum = np.array(inv_rows).reshape(n, n)
    cheapest_coeff = np.array(cheapest_rows).reshape(n, n)
    # shared by every embedding call, so no caller may write into them
    inv_sum.flags.writeable = cheapest_coeff.flags.writeable = False
    return PathCatalog(
        net=net,
        recursion_calls=recursion_calls,
        inv_coeff_sum=inv_sum,
        cheapest=cheapest,
        cheapest_coefficient=cheapest_coeff,
    )
