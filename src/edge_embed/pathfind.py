"""Exhaustive simple-path enumeration between server pairs.

Streams may be split across every simple path joining two servers, so the
embedding stage needs the complete per-pair path inventory up front. Paths
are found by a depth-first walk that pushes a node onto the current route,
recurses into unvisited neighbors, and pops on the way back. The walk is
exponential by nature; a configurable cap on the total number of stored
paths turns runaway growth into a clean error instead of an OOM.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import PathExplosionError, SamePairError, ValidationError
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
    """Shared countdown of how many more paths may be stored."""

    def __init__(self, cap: int):
        self.cap = cap
        self.remaining = cap

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise PathExplosionError(self.cap)


def _walk_pair(
    net: EdgeNetwork, src: int, dst: int, budget: _Budget | None
) -> tuple[list[SimplePath], int]:
    """Enumerate all simple paths src -> dst; returns (paths, call count)."""
    found: list[SimplePath] = []
    route: list[int] = []
    route_links: list[int] = []
    visited: set[int] = set()
    calls = 0

    def walk(node: int) -> None:
        nonlocal calls
        calls += 1
        if node == dst:
            if budget is not None:
                budget.spend()
            found.append(
                SimplePath(nodes=tuple(route) + (dst,), link_ids=tuple(route_links))
            )
            return
        route.append(node)
        visited.add(node)
        for neighbor, link_id in net.adjacency[node]:
            if neighbor not in visited:
                route_links.append(link_id)
                walk(neighbor)
                route_links.pop()
        route.pop()
        visited.remove(node)

    walk(src)
    found.sort(key=lambda p: (len(p.nodes), p.nodes))
    return found, calls


def enumerate_simple_paths(
    net: EdgeNetwork, src: int, dst: int, *, path_cap: int | None = None
) -> list[SimplePath]:
    """Every simple path from ``src`` to ``dst`` in canonical order.

    Canonical order is (path length, node sequence) ascending, so output
    is stable across runs. Raises ValidationError when an end is not a
    server of ``net``, SamePairError when src == dst, and
    PathExplosionError when more than ``path_cap`` paths exist.
    """
    for end in (src, dst):
        if not 0 <= end < net.n_servers:
            raise ValidationError(
                f"server {end} is not in the network ({net.n_servers} servers)"
            )
    if src == dst:
        raise SamePairError(src)
    budget = None if path_cap is None else _Budget(path_cap)
    paths, _ = _walk_pair(net, src, dst, budget)
    return paths


@dataclass
class PathCatalog:
    """Per ordered server pair: simple paths, coefficients, and aggregates.

    ``coefficients[(u, v)][k]`` is the seconds-per-bit cost of path k, and
    ``inv_coeff_sum[(u, v)]`` holds ``sum(1 / A_k)`` over all paths of the
    pair, the denominator of the bottleneck-equalizing split. Recursion
    call counts per pair are kept for complexity checks.
    """

    n_servers: int
    paths: dict[tuple[int, int], tuple[SimplePath, ...]] = field(repr=False)
    coefficients: dict[tuple[int, int], tuple[float, ...]] = field(repr=False)
    inv_coeff_sum: dict[tuple[int, int], float] = field(repr=False)
    recursion_calls: dict[tuple[int, int], int] = field(repr=False)
    path_cap: int = DEFAULT_PATH_CAP
    total_paths: int = 0

    def pair_paths(self, u: int, v: int) -> tuple[SimplePath, ...]:
        return self.paths[(u, v)]

    def pair_coefficients(self, u: int, v: int) -> tuple[float, ...]:
        return self.coefficients[(u, v)]

    def transit_seconds(self, u: int, v: int, bits: float) -> float:
        """Best achievable transfer time for ``bits`` from u to v.

        Zero when both functions share a server; otherwise the stream is
        spread over every simple path so all branches finish together.
        """
        if u == v:
            return 0.0
        return bits / self.inv_coeff_sum[(u, v)]


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
    """Enumerate every ordered server pair of ``net`` into a catalog.

    Raises PathExplosionError as soon as the total number of stored paths
    passes ``path_cap`` (summed across pairs), so hopeless networks fail
    fast instead of filling memory.
    """
    cap = resolve_path_cap(path_cap)
    budget = _Budget(cap)
    paths: dict[tuple[int, int], tuple[SimplePath, ...]] = {}
    coefficients: dict[tuple[int, int], tuple[float, ...]] = {}
    inv_sum: dict[tuple[int, int], float] = {}
    calls: dict[tuple[int, int], int] = {}
    n = net.n_servers
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            pair_paths, pair_calls = _walk_pair(net, u, v, budget)
            coeffs = tuple(path_coefficient(p, net) for p in pair_paths)
            paths[(u, v)] = tuple(pair_paths)
            coefficients[(u, v)] = coeffs
            inv_sum[(u, v)] = sum(1.0 / a for a in coeffs)
            calls[(u, v)] = pair_calls
    total = sum(len(p) for p in paths.values())
    return PathCatalog(
        n_servers=n,
        paths=paths,
        coefficients=coefficients,
        inv_coeff_sum=inv_sum,
        recursion_calls=calls,
        path_cap=cap,
        total_paths=total,
    )
