"""Exhaustive simple-path enumeration between server pairs.

Streams may be split across every simple path joining two servers, but
the embedders need much less than the paths themselves: each prices a
server pair from one dense n x n matrix, and only the pairs an embedding
actually uses need their path lists. The catalog therefore walks once from
each source server and fills both matrices, diagonal included:
``inv_coeff_sum`` (``sum(1 / A_k)``, infinite on the diagonal) for ``dpe``
and ``cheapest_coefficient`` (the cheapest path's A, zero on the diagonal)
for the single-path baselines. It also keeps per-pair coefficients and the
cheapest path, and lists a pair's paths on first use.

The walk is depth-first: it pushes a server onto the current route, moves
on to unvisited neighbours in ascending id, and pops on the way back. It
is exponential by nature; a configurable cap on the total number of
enumerated paths turns runaway growth into a clean error instead of a
hopeless run.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import EdgeEmbedError, PathExplosionError, ValidationError
from .model import EdgeNetwork

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


class _Budget:
    """Shared countdown of how many more paths may be enumerated."""

    def __init__(self, cap: int):
        self.cap = cap
        self.remaining = cap

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise PathExplosionError(self.cap)


def _walk(
    net: EdgeNetwork, src: int, dst: int | None = None
) -> Iterator[tuple[list[int], list[int], float]]:
    """Depth-first walk over the simple paths that leave ``src``.

    Every step lands on one simple path and yields it as ``(nodes,
    link_ids, coefficient)``. The two lists belong to the walk and change
    after the yield: copy them to keep the path. The coefficient is summed
    left to right like ``path_coefficient``, so the floats are the same.
    Neighbours are visited in ascending id, so the paths ending at any one
    server come in lexicographic node order. A path that reaches ``dst``
    is not extended.
    """
    inverse = [1.0 / link.throughput for link in net.links]
    nodes = [src]
    link_ids: list[int] = []
    coefficients = [0.0]
    on_route = {src}
    branches = [iter(net.adjacency[src])]
    while branches:
        for node, link_id in branches[-1]:
            if node in on_route:
                continue
            coefficient = coefficients[-1] + inverse[link_id]
            nodes.append(node)
            link_ids.append(link_id)
            coefficients.append(coefficient)
            yield nodes, link_ids, coefficient
            if node != dst:
                on_route.add(node)
                branches.append(iter(net.adjacency[node]))
                break
            nodes.pop()
            link_ids.pop()
            coefficients.pop()
        else:
            branches.pop()
            on_route.discard(nodes.pop())
            if link_ids:
                link_ids.pop()
                coefficients.pop()


def _list_paths(
    net: EdgeNetwork, src: int, dst: int, budget: _Budget | None
) -> tuple[SimplePath, ...]:
    """Every simple path src -> dst in canonical order."""
    found = []
    for nodes, link_ids, _ in _walk(net, src, dst):
        if nodes[-1] == dst:
            if budget is not None:
                budget.spend()
            found.append(SimplePath(nodes=tuple(nodes), link_ids=tuple(link_ids)))
    # the walk meets them in node order, so a stable sort by length suffices
    found.sort(key=lambda p: len(p.nodes))
    return tuple(found)


def enumerate_simple_paths(
    net: EdgeNetwork, src: int, dst: int, *, path_cap: int | None = None
) -> list[SimplePath]:
    """Every simple path from ``src`` to ``dst`` in canonical order.

    Canonical order is (path length, node sequence) ascending, so output
    is stable across runs. Raises ValidationError when an end is not a
    server of ``net``, EdgeEmbedError when src == dst, and
    PathExplosionError when more than ``path_cap`` paths exist.
    """
    for end in (src, dst):
        if not 0 <= end < net.n_servers:
            raise ValidationError(
                f"server {end} is not in the network ({net.n_servers} servers)"
            )
    if src == dst:
        raise EdgeEmbedError(f"no paths requested between server {src} and itself")
    budget = None if path_cap is None else _Budget(path_cap)
    return list(_list_paths(net, src, dst, budget))


@dataclass
class PathCatalog:
    """Per ordered server pair: path coefficients, pair costs, cheapest path.

    ``coefficients[(u, v)][k]`` is the seconds-per-bit cost of path k in
    canonical order. ``inv_coeff_sum[u, v]`` holds ``sum(1 / A_k)`` over
    all paths of the pair, the denominator of the bottleneck-equalizing
    split, and is infinite on the diagonal, so ``bits / inv_coeff_sum`` is
    the split transit matrix with free same-server streams.
    ``cheapest[(u, v)]`` is the canonical-first path of least coefficient,
    which costs ``cheapest_coefficient[u, v]`` seconds per bit; that matrix
    is zero on the diagonal. Both matrices are read-only n x n arrays. The
    paths themselves are listed by ``pair_paths`` on first use.
    """

    net: EdgeNetwork = field(repr=False)
    coefficients: dict[tuple[int, int], tuple[float, ...]] = field(repr=False)
    inv_coeff_sum: np.ndarray = field(repr=False)
    cheapest: dict[tuple[int, int], SimplePath] = field(repr=False)
    cheapest_coefficient: np.ndarray = field(repr=False)
    total_paths: int = 0
    _listed: dict[tuple[int, int], tuple[SimplePath, ...]] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def recursion_calls(self) -> dict[tuple[int, int], int]:
        """Walk steps that landed on v from u, one per path of the pair."""
        return {pair: len(coeffs) for pair, coeffs in self.coefficients.items()}

    def pair_paths(self, u: int, v: int) -> tuple[SimplePath, ...]:
        """The pair's paths in canonical order, listed once and memoized."""
        paths = self._listed.get((u, v))
        if paths is None:
            if (u, v) not in self.coefficients:
                raise KeyError((u, v))
            paths = self._listed[(u, v)] = _list_paths(self.net, u, v, None)
        return paths

    def pair_coefficients(self, u: int, v: int) -> tuple[float, ...]:
        return self.coefficients[(u, v)]


def resolve_path_cap(explicit: int | None = None) -> int:
    """Path cap: explicit argument, then env var (>= 0), then default."""
    if explicit is not None:
        return explicit
    env = os.environ.get(PATH_CAP_ENV_VAR)
    if env is None:
        return DEFAULT_PATH_CAP
    if not env.strip().isdecimal():
        raise ValidationError(
            f"{PATH_CAP_ENV_VAR} must be a non-negative integer, got {env!r}"
        )
    return int(env)


def build_catalog(net: EdgeNetwork, path_cap: int | None = None) -> PathCatalog:
    """Walk from every server of ``net`` into a catalog of all ordered pairs.

    Raises PathExplosionError as soon as the total number of enumerated
    paths passes ``path_cap`` (summed across ordered pairs), so hopeless
    networks fail fast; the cap bounds the work of the walk.
    """
    budget = _Budget(resolve_path_cap(path_cap))
    coefficients: dict[tuple[int, int], tuple[float, ...]] = {}
    cheapest: dict[tuple[int, int], SimplePath] = {}
    n = net.n_servers
    inv_sum = np.full((n, n), np.inf)
    cheapest_coeff = np.zeros((n, n))
    for u in range(n):
        # by_hops[v][h]: coefficients of the h-link paths u -> v in walk
        # order; read out hop by hop they are in canonical order
        by_hops = [[[] for _ in range(n)] for _ in range(n)]
        best_coeff = [math.inf] * n
        best_hops = [n] * n
        best_route: list[tuple | None] = [None] * n
        for nodes, link_ids, coeff in _walk(net, u):
            budget.spend()
            v = nodes[-1]
            hops = len(link_ids)
            by_hops[v][hops].append(coeff)
            # strict on (coefficient, hops): ties keep the path met first
            if coeff < best_coeff[v] or (coeff == best_coeff[v] and hops < best_hops[v]):
                best_coeff[v] = coeff
                best_hops[v] = hops
                best_route[v] = (tuple(nodes), tuple(link_ids))
        for v in range(n):
            if v == u:
                continue
            coeffs = tuple(chain.from_iterable(by_hops[v]))
            coefficients[(u, v)] = coeffs
            inv_sum[u, v] = sum(1.0 / a for a in coeffs)
            cheapest_coeff[u, v] = best_coeff[v]
            if best_route[v] is not None:
                route_nodes, route_links = best_route[v]
                cheapest[(u, v)] = SimplePath(nodes=route_nodes, link_ids=route_links)
    # shared by every embedding call, so no caller may write into them
    inv_sum.flags.writeable = cheapest_coeff.flags.writeable = False
    return PathCatalog(
        net=net,
        coefficients=coefficients,
        inv_coeff_sum=inv_sum,
        cheapest=cheapest,
        cheapest_coefficient=cheapest_coeff,
        total_paths=sum(len(c) for c in coefficients.values()),
    )
