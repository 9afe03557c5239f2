"""Output checks that share no code with the program under test.

The checker reads the raw inputs (server speeds, link throughputs, function
flops, stream bits, ready times) and the fields of a returned embedding
(placements, edge mappings with their paths and allocations, finish times,
makespan). It never calls the program: finish times come from its own
recurrence, path counts from its own depth-first search and cheapest routes
from its own Dijkstra search.

Every check returns a list of problem strings; an empty list means the
embedding passed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Sequence

REL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


@dataclass
class CheckDag:
    """One workload plus its collector, in the stored function order.

    ``order`` lists function ids as the program stores them; the collector
    takes the next free id and comes last, fed by every function without
    successors with that function's output size.
    """

    flops: dict[int, float]
    bits: dict[tuple[int, int], float]
    order: list[int]
    collector: int
    preds: dict[int, list[int]] = field(init=False)
    succs: dict[int, list[int]] = field(init=False)

    def __post_init__(self):
        self.preds = {f: [] for f in self.order}
        self.succs = {f: [] for f in self.order}
        for src, dst in self.bits:
            self.preds[dst].append(src)
            self.succs[src].append(dst)
        position = {f: k for k, f in enumerate(self.order)}
        for src, dst in self.bits:
            if position[src] >= position[dst]:
                raise ValueError(f"stored order is not topological at {src}->{dst}")

    @classmethod
    def build(
        cls,
        functions: Sequence[tuple[int, float]],
        edges: Sequence[tuple[int, int, float]],
        dst_out: Mapping[int, float],
    ) -> "CheckDag":
        """From (id, flops) in stored order, (src, dst, bits) and sink outputs."""
        collector = len(functions)
        flops = {fid: fl for fid, fl in functions}
        flops[collector] = 0.0
        bits = {(s, d): b for s, d, b in edges}
        has_succ = {s for s, _, _ in edges}
        sinks = sorted(fid for fid, _ in functions if fid not in has_succ)
        if sorted(dst_out) != sinks:
            raise ValueError("output sizes do not cover exactly the sinks")
        for d in sinks:
            bits[(d, collector)] = dst_out[d]
        order = [fid for fid, _ in functions] + [collector]
        return cls(flops=flops, bits=bits, order=order, collector=collector)

    def dp_structure(self) -> tuple[int, int]:
        """(non-entry functions, first consumers of out-degree >= 2 functions).

        The dynamic program fills one row per non-entry function and
        recomputes the row of the first consumer, in stored order, of every
        function that feeds two or more others.
        """
        non_entries = sum(1 for f in self.order if self.preds[f])
        position = {f: k for k, f in enumerate(self.order)}
        first_consumers = {
            min(self.succs[f], key=position.__getitem__)
            for f in self.order
            if len(self.succs[f]) >= 2
        }
        return non_entries, len(first_consumers)

    def fanout_functions(self) -> int:
        return sum(1 for f in self.order if len(self.succs[f]) >= 2)


class Checker:
    """Independent verifier for embeddings on one network."""

    def __init__(self, psi: Sequence[float], links: Sequence[tuple[int, int, int, float]]):
        self.psi = list(psi)
        self.n = len(self.psi)
        self.adj: dict[int, list[tuple[int, float]]] = {u: [] for u in range(self.n)}
        # unordered server pair -> (link id, throughput)
        self.link: dict[tuple[int, int], tuple[int, float]] = {}
        for link_id, u, v, throughput in links:
            self.adj[u].append((v, throughput))
            self.adj[v].append((u, throughput))
            self.link[(min(u, v), max(u, v))] = (link_id, throughput)
        self.fastest = max(range(self.n), key=lambda s: (self.psi[s], -s))
        self._path_count: dict[tuple[int, int], int] = {}
        self._distance: dict[int, list[float]] = {}
        self._coefficient: dict[tuple, float | None] = {}

    # -- graph facts computed here, not taken from the program -------------

    def path_count(self, u: int, v: int) -> int:
        """Number of simple paths u -> v, by depth-first search."""
        key = (u, v)
        if key not in self._path_count:
            visited = [False] * self.n

            def walk(node: int) -> int:
                if node == v:
                    return 1
                visited[node] = True
                total = 0
                for nb, _ in self.adj[node]:
                    if not visited[nb]:
                        total += walk(nb)
                visited[node] = False
                return total

            self._path_count[key] = walk(u)
        return self._path_count[key]

    def shortest(self, u: int, v: int) -> float:
        """Smallest sum of inverse throughputs over any u -> v route."""
        if u not in self._distance:
            dist = [float("inf")] * self.n
            dist[u] = 0.0
            heap = [(0.0, u)]
            while heap:
                d, node = heapq.heappop(heap)
                if d > dist[node]:
                    continue
                for nb, throughput in self.adj[node]:
                    nd = d + 1.0 / throughput
                    if nd < dist[nb]:
                        dist[nb] = nd
                        heapq.heappush(heap, (nd, nb))
            self._distance[u] = dist
        return self._distance[u][v]

    def coefficient(self, nodes: tuple[int, ...], link_ids: tuple[int, ...]) -> float | None:
        """Seconds per bit of a route, or None if it is not a simple path
        over existing links with matching link ids."""
        key = (nodes, link_ids)
        if key not in self._coefficient:
            value: float | None = None
            if len(set(nodes)) == len(nodes) and len(link_ids) == len(nodes) - 1:
                value = 0.0
                for a, b, link_id in zip(nodes, nodes[1:], link_ids):
                    found = self.link.get((min(a, b), max(a, b)))
                    if found is None or found[0] != link_id:
                        value = None
                        break
                    value += 1.0 / found[1]
            self._coefficient[key] = value
        return self._coefficient[key]

    # -- recurrences -------------------------------------------------------

    def idle_optimum(self, dag: CheckDag) -> float:
        """Makespan with every function on the fastest server, no ready
        times: the optimum when servers are idle, since transit is then zero
        and every processing time is as small as it can be."""
        psi = self.psi[self.fastest]
        finish: dict[int, float] = {}
        for f in dag.order:
            start = max((finish[i] for i in dag.preds[f]), default=0.0)
            finish[f] = start + dag.flops[f] / psi
        return finish[dag.collector]

    def _transits(self, dag: CheckDag, algo: str, result, problems: list[str]) -> dict:
        placements = result.placements
        mappings = result.edge_mappings
        if set(mappings) != set(dag.bits):
            problems.append("edge mappings do not cover exactly the streams")
            return {}
        transit: dict[tuple[int, int], float] = {}
        for (src, dst), size in dag.bits.items():
            mapping = mappings[(src, dst)]
            m, n = placements[src], placements[dst]
            paths, alloc = mapping.paths, mapping.allocations
            if m == n:
                if not mapping.same_server or paths or alloc:
                    problems.append(f"same-server stream {src}->{dst} carries a route")
                transit[(src, dst)] = 0.0
                continue
            if mapping.same_server or not paths or len(paths) != len(alloc):
                problems.append(f"stream {src}->{dst} between servers {m}->{n} is not routed")
                continue
            branch: list[float] = []
            coeffs: list[float] = []
            for path, z in zip(paths, alloc):
                nodes = tuple(path.nodes)
                c = self.coefficient(nodes, tuple(path.link_ids))
                if c is None or nodes[0] != m or nodes[-1] != n:
                    problems.append(f"stream {src}->{dst} uses an invalid path {nodes}")
                    break
                if not z > 0:
                    problems.append(f"stream {src}->{dst} has a non-positive allocation")
                    break
                coeffs.append(c)
                branch.append(c * z)
            else:
                if len({tuple(p.nodes) for p in paths}) != len(paths):
                    problems.append(f"stream {src}->{dst} repeats a path")
                if not _close(sum(alloc), size):
                    problems.append(f"stream {src}->{dst} allocations sum to {sum(alloc)}, not {size}")
                if algo == "dpe":
                    if len(paths) != self.path_count(m, n):
                        problems.append(
                            f"stream {src}->{dst} uses {len(paths)} of "
                            f"{self.path_count(m, n)} paths {m}->{n}"
                        )
                    if not _close(min(branch), max(branch)):
                        problems.append(f"stream {src}->{dst} branches finish apart")
                else:
                    if len(paths) != 1:
                        problems.append(f"stream {src}->{dst} uses {len(paths)} paths, not 1")
                    elif not _close(coeffs[0], self.shortest(m, n)):
                        problems.append(f"stream {src}->{dst} does not use a cheapest path")
                transit[(src, dst)] = max(branch)
        return transit

    def check(
        self,
        dag: CheckDag,
        algo: str,
        result,
        replay_makespan: float,
        ready: Sequence[float] | None = None,
    ) -> list[str]:
        """Verify one embedding returned by ``algo`` for ``dag``.

        ``replay_makespan`` is what the program's own replay reported; it
        must agree with this checker's recurrence.
        """
        problems: list[str] = []
        placements = result.placements
        if set(placements) != set(dag.order) or not all(
            0 <= s < self.n for s in placements.values()
        ):
            return ["placements do not map every function to a server"]
        if set(result.finish_times) != set(dag.order):
            return ["finish times do not cover every function"]
        transit = self._transits(dag, algo, result, problems)
        if problems:
            return problems

        ready_at = [0.0] * self.n if ready is None else list(ready)
        proc = {f: dag.flops[f] / self.psi[placements[f]] for f in dag.order}
        finish: dict[int, float] = {}
        for f in dag.order:
            if dag.preds[f]:
                finish[f] = max(finish[i] + transit[(i, f)] for i in dag.preds[f]) + proc[f]
            else:
                finish[f] = proc[f] + ready_at[placements[f]]
        makespan = finish[dag.collector]
        if not _close(makespan, replay_makespan):
            problems.append(f"replay makespan {replay_makespan} != recurrence {makespan}")

        if algo == "heft":
            problems.extend(self._check_schedule(dag, result, transit, proc))
            if result.makespan < makespan * (1 - REL):
                problems.append(f"makespan {result.makespan} beats the recurrence {makespan}")
        else:
            if not _close(makespan, result.makespan):
                problems.append(f"makespan {result.makespan} != recurrence {makespan}")
            for f in dag.order:
                if not _close(finish[f], result.finish_times[f]):
                    problems.append(f"finish time of {f} != recurrence")
                    break
        return problems

    def _check_schedule(self, dag: CheckDag, result, transit, proc) -> list[str]:
        """A list schedule: inputs arrive before each start, servers run one
        function at a time, and the collector's finish is the makespan."""
        problems: list[str] = []
        finish = result.finish_times
        tol = REL * result.makespan
        if not _close(finish[dag.collector], result.makespan):
            problems.append("makespan is not the collector's finish time")
        by_server: dict[int, list[tuple[float, float]]] = {}
        for f in dag.order:
            start = finish[f] - proc[f]
            arrival = max((finish[i] + transit[(i, f)] for i in dag.preds[f]), default=0.0)
            if start < arrival - tol:
                problems.append(f"function {f} starts before its inputs arrive")
            by_server.setdefault(result.placements[f], []).append((start, finish[f]))
        for server, slots in by_server.items():
            slots.sort()
            for (_, end), (start, _) in zip(slots, slots[1:]):
                if start < end - tol:
                    problems.append(f"functions overlap on server {server}")
                    break
        return problems
