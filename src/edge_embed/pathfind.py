"""Exhaustive simple-path enumeration between server pairs.

Streams may be split across every simple path joining two servers, but
the embedders need much less than the paths themselves: each prices a
server pair from one dense n x n matrix, and only the pairs an embedding
actually uses need their path lists. The catalog therefore expands the
simple paths that leave each source server level by level (one link, then
two, ...) and fills both matrices, diagonal included: ``inv_coeff_sum``
(``sum(1 / A_k)``, infinite on the diagonal) for ``dpe`` and
``cheapest_coefficient`` (the cheapest path's A, zero on the diagonal) for
the single-path baselines. It keeps per-pair path counts. A pair's
cheapest path, built when first read, and its listing of paths and
coefficients, made on first use, come from one more level-order expansion
from the pair's source that never extends its destination. All read one
table of each server's neighbours in ascending id with the link id and its
inverse throughput. Enumeration is exponential by nature; a cap on the
number of expanded paths (``EDGE_EMBED_PATH_CAP``) turns runaway growth
into a clean error instead of a hopeless run.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import islice

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


def path_coefficient(path: SimplePath, net: EdgeNetwork) -> float:
    """Seconds per bit along ``path``: sum of inverse link throughputs.

    Summed left to right so the value is reproducible bit for bit.
    """
    total = 0.0
    for link_id in path.link_ids:
        total += 1.0 / net.links[link_id].throughput
    return total


def _adjacency(net: EdgeNetwork) -> list[tuple[tuple[int, float, int], ...]]:
    """The enumeration table: per server id, ``(neighbour, 1 / throughput, link
    id)`` in ascending neighbour id, the float a step adds to the coefficient."""
    inverse = [1.0 / link.throughput for link in net.links]
    return [
        tuple((node, inverse[link_id], link_id) for node, link_id in net.adjacency[v])
        for v in range(net.n_servers)
    ]


def _paths_to(
    adjacency: list[tuple[tuple[int, float, int], ...]], src: int, dst: int, cap: float
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], float]]:
    """Every simple path src -> dst as ``(nodes, link_ids, coefficient)`` in
    canonical (hops, nodes) order: the paths that leave ``src``, expanded level
    by level on the ``_adjacency`` table, neighbours in ascending id, without
    extending ``dst``. Each coefficient is summed left to right from the
    table's floats, as ``path_coefficient`` sums. Raises PathExplosionError
    once more than ``cap`` paths have been expanded.
    """
    expanded = 0
    level = [((src,), (), 0.0, 1 << src)]
    while level:
        deeper = []
        for nodes, link_ids, coeff, mask in level:
            for node, inverse, link_id in adjacency[nodes[-1]]:
                if mask >> node & 1:
                    continue
                if expanded == cap:
                    raise PathExplosionError(cap)
                expanded += 1
                if node == dst:
                    yield nodes + (node,), link_ids + (link_id,), coeff + inverse
                else:
                    deeper.append(
                        (nodes + (node,), link_ids + (link_id,), coeff + inverse, mask | 1 << node)
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


def _check_ends(net: EdgeNetwork, src, dst) -> None:
    """Raise ValidationError unless both ends are integer server ids of
    ``net`` (a bool is not), and EdgeEmbedError when they are one server."""
    for end in (src, dst):
        if not (_is_integer(end) and 0 <= end < net.n_servers):
            raise ValidationError(
                f"server {_shown(end)} is not in the network ({net.n_servers} servers)"
            )
    if src == dst:
        raise EdgeEmbedError(f"no paths requested between server {src} and itself")


def enumerate_simple_paths(net: EdgeNetwork, src: int, dst: int) -> list[SimplePath]:
    """Every simple path from ``src`` to ``dst`` in canonical order.

    Raises ValidationError when an end is not a server of ``net``,
    EdgeEmbedError when src == dst, and PathExplosionError when the listing
    expands more than ``resolve_path_cap()`` paths from ``src``.
    """
    _check_ends(net, src, dst)
    return list(_list_paths(_adjacency(net), src, dst)[0])


def _route(adjacency, rank: int, src: int, dst: int) -> SimplePath:
    """Path ``rank`` (from 0) of src -> dst in canonical order; uncapped, as
    the catalog has counted every path the search expands."""
    nodes, link_ids, _ = next(islice(_paths_to(adjacency, src, dst, math.inf), rank, None))
    return SimplePath(nodes, link_ids)


class _CheapestRoutes(Mapping):
    """Pairs, in ascending order, to their cheapest path: built on first read, then kept."""

    def __init__(self, adjacency, ranks: dict[tuple[int, int], int]):
        self._adjacency, self._ranks, self._built = adjacency, ranks, {}

    def __getitem__(self, pair):
        try:
            return self._built[pair]
        except KeyError:
            path = self._built[pair] = _route(self._adjacency, self._ranks[pair], *pair)
        return path

    def __iter__(self):
        return iter(self._ranks)

    def __len__(self):
        return len(self._ranks)


@dataclass
class PathCatalog:
    """Per ordered server pair: path count, pair costs, cheapest path; the
    one pair-cost table every embedder reads.

    ``recursion_calls[(u, v)]`` counts the paths from u to v, and the
    ``total_paths`` property sums them. ``inv_coeff_sum[u, v]`` holds
    ``sum(1 / A_k)`` over all paths of the pair, the denominator of the
    bottleneck-equalizing split, and is infinite on the diagonal, so
    ``bits / inv_coeff_sum`` is the split transit matrix with free
    same-server streams. ``cheapest[(u, v)]``, a read-only mapping built on
    first read, is the canonical-first path of least coefficient, which costs
    ``cheapest_coefficient[u, v]`` seconds per bit; that matrix is zero on
    the diagonal. Both matrices are read-only n x n arrays. A pair's paths
    and their coefficients are listed together on first use and memoized
    with the pair's split terms.
    """

    net: EdgeNetwork = field(repr=False)
    recursion_calls: dict[tuple[int, int], int] = field(repr=False)
    inv_coeff_sum: np.ndarray = field(repr=False)
    cheapest: Mapping[tuple[int, int], SimplePath] = field(repr=False)
    cheapest_coefficient: np.ndarray = field(repr=False)
    _adjacency: list[tuple[tuple[int, float, int], ...]] = field(repr=False)
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
        listing's 1 / A_k added left to right; ``a_max`` and ``a_min`` are
        the largest and smallest coefficient, as ``optimal_split`` computes
        them. When the pair has no path or a coefficient outside (0, inf),
        which no split accepts, all three are nan. Raises what
        ``enumerate_simple_paths`` raises, checked when the pair is first listed.
        """
        try:
            return self._listed[(u, v)]
        except (KeyError, TypeError):  # not listed yet, or an unhashable end
            pass
        _check_ends(self.net, u, v)
        paths, coefficients = _list_paths(self._adjacency, u, v)
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
    """A lower bound on the catalog's paths: those of one or two links.

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
    """Expand the simple paths that leave each server of ``net`` level by
    level into a catalog of all ordered pairs. A level holds its paths as
    parallel lists (end server, coefficient, route bitmask) in node order,
    so a pair's paths come in canonical order: its ``sum(1 / A_k)`` is
    added left to right and a strict ``<`` keeps the rank of its
    canonical-first cheapest path. Raises PathExplosionError on the first
    path past ``resolve_path_cap()``, counted across all pairs, and before
    the first level when the paths of at most two links alone pass it.
    """
    cap = resolve_path_cap()
    if _short_path_count(net) > cap:
        raise PathExplosionError(cap)
    n = net.n_servers
    adjacency = _adjacency(net)
    # the expansion's table: _adjacency's with each neighbour's route bit
    steps = [tuple((w, inverse, 1 << w) for w, inverse, _ in row) for row in adjacency]
    total_paths = 0
    recursion_calls: dict[tuple[int, int], int] = {}
    ranks: dict[tuple[int, int], int] = {}
    inv_rows, cheapest_rows = [], []
    for u in range(n):
        inv_row = [0.0] * n
        best = [math.inf] * n
        count = [0] * n
        rank = [0] * n
        ends, coeffs, masks = [u], [0.0], [1 << u]
        while ends:
            next_ends, next_coeffs, next_masks = [], [], []
            for end, coeff, mask in zip(ends, coeffs, masks):
                for node, inverse, bit in steps[end]:
                    if mask & bit:
                        continue
                    if total_paths == cap:
                        raise PathExplosionError(cap)
                    total_paths += 1
                    coefficient = coeff + inverse
                    inv_row[node] += 1.0 / coefficient
                    if coefficient < best[node]:  # strict: the canonical-first wins
                        best[node] = coefficient
                        rank[node] = count[node]
                    count[node] += 1
                    next_ends.append(node)
                    next_coeffs.append(coefficient)
                    next_masks.append(mask | bit)
            ends, coeffs, masks = next_ends, next_coeffs, next_masks
        for v in range(n):
            if v != u:
                pair = (u, v)
                recursion_calls[pair] = count[v]
                if best[v] < math.inf:
                    ranks[pair] = rank[v]
        inv_row[u] = math.inf
        best[u] = 0.0
        inv_rows.append(inv_row)
        cheapest_rows.append(best)
    # reshaped so that a network without servers still gets 0 x 0 matrices
    inv_sum = np.array(inv_rows).reshape(n, n)
    cheapest_coeff = np.array(cheapest_rows).reshape(n, n)
    # shared by every embedding call, so no caller may write into them
    inv_sum.flags.writeable = cheapest_coeff.flags.writeable = False
    return PathCatalog(
        net=net,
        recursion_calls=recursion_calls,
        inv_coeff_sum=inv_sum,
        cheapest=_CheapestRoutes(adjacency, ranks),
        cheapest_coefficient=cheapest_coeff,
        _adjacency=adjacency,
    )
