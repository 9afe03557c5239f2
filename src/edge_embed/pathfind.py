"""Exhaustive simple-path enumeration between server pairs.

Streams may be split across every simple path joining two servers, but
the embedders need much less than the paths themselves: each prices a
server pair from one dense n x n matrix, and only the pairs an embedding
actually uses need their path lists. The catalog therefore expands the
simple paths that leave each source server level by level (one link, then
two, ...) and fills three matrices, diagonal included: ``inv_coeff_sum``
(``sum(1 / A_k)``, infinite on the diagonal) for ``dpe``,
``cheapest_coefficient`` (the cheapest path's A, zero on the diagonal) for
the single-path baselines, and the per-pair ``path_count``. A pair's
cheapest path and its listing of paths and coefficients, each made on
first use, come from one more level-order expansion from the pair's source
that never extends its destination. Every expansion reads one table built
from the links: each server's neighbours in ascending id, with the inverse
throughput, route bit and id of the link. Enumeration is exponential by
nature; a cap on the number of expanded paths (``EDGE_EMBED_PATH_CAP``)
turns runaway growth into a clean error instead of a hopeless run.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import EdgeEmbedError, PathExplosionError, ValidationError
from .model import EdgeNetwork, _is_integer, _shown

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


# per server id: (neighbour, 1 / throughput, route bit, link id) per link
_Table = list[tuple[tuple[int, float, int, int], ...]]


def _adjacency(net: EdgeNetwork) -> _Table:
    """The one traversal table, built from ``net.links``: per server id one
    entry per link, sorted by (neighbour, link id), with the float it adds to
    a coefficient and the bit it sets in a route's visited mask."""
    rows: list[list[tuple[int, float, int, int]]] = [[] for _ in net.servers]
    for link in net.links:
        inverse = 1.0 / link.throughput
        rows[link.u].append((link.v, inverse, 1 << link.v, link.id))
        rows[link.v].append((link.u, inverse, 1 << link.u, link.id))
    return [tuple(sorted(row, key=itemgetter(0, 3))) for row in rows]


def _paths_to(
    adjacency: _Table, src: int, dst: int, cap: float
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], float]]:
    """Every simple path src -> dst as ``(nodes, link_ids, coefficient)`` in
    canonical (hops, nodes) order: the paths that leave ``src``, expanded level
    by level on the ``_adjacency`` table without extending ``dst``. Each
    coefficient, the path's seconds per bit, is its links' inverse
    throughputs added left to right from 0.0. Raises PathExplosionError once
    more than ``cap`` paths have been expanded.
    """
    expanded = 0
    level = [((src,), (), 0.0, 1 << src)]
    while level:
        deeper = []
        for nodes, link_ids, coeff, mask in level:
            for node, inverse, bit, link_id in adjacency[nodes[-1]]:
                if mask & bit:
                    continue
                if expanded == cap:
                    raise PathExplosionError(cap)
                expanded += 1
                if node == dst:
                    yield nodes + (node,), link_ids + (link_id,), coeff + inverse
                else:
                    deeper.append(
                        (nodes + (node,), link_ids + (link_id,), coeff + inverse, mask | bit)
                    )
        level = deeper


# a pair's paths in canonical order and their coefficients; then its split terms
_Listing = tuple[tuple[SimplePath, ...], tuple[float, ...]]
_SplitListing = tuple[tuple[SimplePath, ...], tuple[float, ...], float, float, float]


def _list_paths(adjacency, src: int, dst: int) -> _Listing:
    """Every simple path src -> dst and its coefficient, in canonical order,
    expanding at most ``resolve_path_cap()`` paths."""
    listed = [
        (SimplePath(nodes, link_ids), coeff)
        for nodes, link_ids, coeff in _paths_to(adjacency, src, dst, resolve_path_cap())
    ]
    return tuple(path for path, _ in listed), tuple(coeff for _, coeff in listed)


def _check_ends(n_servers: int, src, dst) -> None:
    """Raise ValidationError unless both ends are integer ids of ``n_servers``
    servers (a bool is not), and EdgeEmbedError when they are one server."""
    for end in (src, dst):
        if not ((type(end) is int or _is_integer(end)) and 0 <= end < n_servers):
            raise ValidationError(
                f"server {_shown(end)} is not in the network ({n_servers} servers)"
            )
    if src == dst:
        raise EdgeEmbedError(f"no paths requested between server {src} and itself")


def enumerate_simple_paths(net: EdgeNetwork, src: int, dst: int) -> list[SimplePath]:
    """Every simple path from ``src`` to ``dst`` of a valid network, in
    canonical order.

    Raises ValidationError when an end is not a server of ``net``,
    EdgeEmbedError when src == dst, and PathExplosionError when the listing
    expands more than ``resolve_path_cap()`` paths from ``src``.
    """
    _check_ends(net.n_servers, src, dst)
    return list(_list_paths(_adjacency(net), src, dst)[0])


@dataclass
class PathCatalog:
    """Per ordered server pair: path count, pair costs, cheapest path; the
    one pair-cost table every embedder reads.

    ``path_count[u, v]`` counts the paths from u to v, zero on the diagonal,
    and the ``total_paths`` property sums them. ``inv_coeff_sum[u, v]`` holds
    ``sum(1 / A_k)`` over all paths of the pair, the denominator of the
    bottleneck-equalizing split, and is infinite on the diagonal, so
    ``bits / inv_coeff_sum`` is the split transit matrix with free
    same-server streams. ``cheapest_coefficient[u, v]`` is the seconds per
    bit of the pair's cheapest path, which ``cheapest_path(u, v)`` builds on
    first use; that matrix is zero on the diagonal. All three matrices are
    read-only n x n arrays. A pair's paths and their coefficients are listed
    together on first use and memoized with the pair's split terms.
    """

    path_count: np.ndarray = field(repr=False)
    inv_coeff_sum: np.ndarray = field(repr=False)
    cheapest_coefficient: np.ndarray = field(repr=False)
    _adjacency: _Table = field(repr=False)
    _listed: dict[tuple[int, int], _SplitListing] = field(
        default_factory=dict, init=False, repr=False
    )
    _cheapest: dict[tuple[int, int], SimplePath] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def total_paths(self) -> int:
        return int(self.path_count.sum())

    @property
    def recursion_calls(self) -> dict[tuple[int, int], int]:
        """``path_count`` per ordered pair of distinct servers, built when
        read. Kept for ``benchmark/run.py --trace 1`` (``walk_calls``) until
        ROADMAP 1b moves that counter to ``total_paths``, as ``passive_routes``
        is kept."""
        rows = enumerate(self.path_count.tolist())
        return {(u, v): c for u, row in rows for v, c in enumerate(row) if v != u}

    def _memoized(self, memo: dict, u, v):
        """``memo``'s entry for the pair or None, after ``_check_ends`` unless
        both ends are exact ints and the pair is memoized."""
        if type(u) is int and type(v) is int and (entry := memo.get((u, v))) is not None:
            return entry
        _check_ends(len(self._adjacency), u, v)
        return memo.get((u, v))

    def pair_split(self, u: int, v: int) -> _SplitListing:
        """``(paths, coefficients, inv_sum, a_max, a_min)`` for the pair,
        listed once and memoized: the terms ``splitter._equalize`` takes.

        ``inv_sum`` is ``inv_coeff_sum[u, v]``, the same float as the
        listing's 1 / A_k added left to right; ``a_max`` and ``a_min`` are
        the largest and smallest coefficient, as ``optimal_split`` computes
        them. When the pair has no path or a coefficient outside (0, inf),
        which no split accepts, all three are nan. Raises what
        ``enumerate_simple_paths`` raises, also for a pair already listed.
        """
        if (listing := self._memoized(self._listed, u, v)) is not None:
            return listing
        paths, coefficients = _list_paths(self._adjacency, u, v)
        if coefficients and all(0.0 < a < math.inf for a in coefficients):
            terms = (float(self.inv_coeff_sum[u, v]), max(coefficients), min(coefficients))
        else:
            terms = (math.nan, math.nan, math.nan)
        listing = self._listed[(u, v)] = (paths, coefficients, *terms)
        return listing

    def cheapest_path(self, u: int, v: int) -> SimplePath:
        """The pair's canonical-first path of least coefficient, memoized: the
        first path ``_paths_to`` yields, uncapped, whose coefficient equals
        ``cheapest_coefficient[u, v]`` (both add the same floats in the same
        order), so the first path when all cost inf. Raises what ``pair_split``
        raises for the ends, and ValidationError on an invalid network."""
        if (path := self._memoized(self._cheapest, u, v)) is not None:
            return path
        least = float(self.cheapest_coefficient[u, v])
        for nodes, link_ids, coefficient in _paths_to(self._adjacency, u, v, math.inf):
            if coefficient == least:
                path = self._cheapest[(u, v)] = SimplePath(nodes, link_ids)
                return path
        raise ValidationError(f"no path of servers {u} -> {v} costs {least!r}: invalid network")


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
    """A lower bound on the catalog's paths, counted from ``net.links``:
    those of one or two links.

    A server v with k distinct neighbours other than itself starts at least
    k one-link paths and is the middle of at least k(k - 1) two-link ones.
    On a valid network (no parallel links, no self-loops) k is v's degree
    and the count, 2|links| + sum k(k - 1), is exact.
    """
    neighbours: list[set[int]] = [set() for _ in net.servers]
    for link in net.links:
        neighbours[link.u].add(link.v)
        neighbours[link.v].add(link.u)
    return sum(len(ends - {v}) ** 2 for v, ends in enumerate(neighbours))


def build_catalog(net: EdgeNetwork) -> PathCatalog:
    """Expand the simple paths that leave each server of a valid ``net``
    level by level into a catalog of all ordered pairs. A level holds its
    paths as parallel lists (end server, coefficient, route bitmask) in node
    order, so a pair's paths come in canonical order and its
    ``sum(1 / A_k)`` is added left to right; each source's three rows go
    straight into the catalog's arrays. Raises PathExplosionError on
    the first path past ``resolve_path_cap()``, counted across all pairs,
    and before the table is built when the paths of at most two links alone
    pass it.
    """
    cap = resolve_path_cap()
    if _short_path_count(net) > cap:
        raise PathExplosionError(cap)
    n = net.n_servers
    adjacency = _adjacency(net)
    total_paths = 0
    inv_sum, cheapest_coeff = np.empty((n, n)), np.empty((n, n))
    path_count = np.empty((n, n), dtype=np.int64)
    for u in range(n):
        inv_row = [0.0] * n
        best = [math.inf] * n
        count = [0] * n
        ends, coeffs, masks = [u], [0.0], [1 << u]
        while ends:
            next_ends, next_coeffs, next_masks = [], [], []
            for end, coeff, mask in zip(ends, coeffs, masks):
                for node, inverse, bit, _ in adjacency[end]:
                    if mask & bit:
                        continue
                    if total_paths == cap:
                        raise PathExplosionError(cap)
                    total_paths += 1
                    coefficient = coeff + inverse
                    inv_row[node] += 1.0 / coefficient
                    if coefficient < best[node]:
                        best[node] = coefficient
                    count[node] += 1
                    next_ends.append(node)
                    next_coeffs.append(coefficient)
                    next_masks.append(mask | bit)
            ends, coeffs, masks = next_ends, next_coeffs, next_masks
        inv_row[u] = math.inf
        best[u] = 0.0
        inv_sum[u], cheapest_coeff[u], path_count[u] = inv_row, best, count
    # shared by every embedding call, so no caller may write into them
    for matrix in (inv_sum, cheapest_coeff, path_count):
        matrix.flags.writeable = False
    return PathCatalog(
        path_count=path_count,
        inv_coeff_sum=inv_sum,
        cheapest_coefficient=cheapest_coeff,
        _adjacency=adjacency,
    )
