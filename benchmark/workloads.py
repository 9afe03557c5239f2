"""The benchmark's workloads and the inputs each one draws from a seed.

The network of a workload is the same on every run: it is drawn from
network seed 0 of the workload's shape. The simple-path count of a random
network swings by orders of magnitude with its link count, so a per-seed
network would make the catalog and split costs, and with them every timing,
depend on the seed far more than on the code. The seed passed to the
benchmark draws the DAGs, through the program's own generator, and the
per-DAG server ready times, through a substream of its own. Every seed
gives the same multiset of DAG sizes, so that the amount of work, and with
it every timing, does not depend on the seed either.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from edge_embed import (
    DagRecord,
    FunctionNode,
    StreamEdge,
    WorkloadDag,
    WorkloadSpec,
)

NETWORK_SEED = 0
# The program's generator uses substreams 0-2 of a seed; ready times use 3.
READY_STREAM = 3
READY_RANGE_S = (0.0, 3.0)
ALGORITHMS = ("dpe", "placement-only", "heft")


@dataclass(frozen=True)
class Workload:
    name: str
    n_servers: int
    n_dags: int
    dag_size_range: tuple[int, int]
    busy: bool
    late_entry: bool

    def network_spec(self) -> WorkloadSpec:
        return WorkloadSpec(seed=NETWORK_SEED, n_servers=self.n_servers)

    def dag_specs(self, seed: int) -> list[WorkloadSpec]:
        """Generator specs for the DAGs of ``seed``, one per DAG size.

        DAG k of n has lo + floor(k (hi - lo + 1) / n) functions, so sizes
        spread evenly over the range and every seed gives the same multiset
        of sizes: the seed changes the DAGs' shapes and weights, not how
        many functions a pass embeds. Size q is drawn by the program's
        generator from seed ``seed * 1000 + q``.
        """
        lo, hi = self.dag_size_range
        n = self.n_dags
        counts = Counter(lo + k * (hi - lo + 1) // n for k in range(n))
        return [
            WorkloadSpec(
                seed=seed * 1000 + q,
                n_servers=self.n_servers,
                n_dags=counts[q],
                dag_size_range=(q, q),
            )
            for q in sorted(counts)
        ]

    def ready_vectors(self, seed: int) -> list[dict[int, float] | None]:
        """One ready-time map per DAG, or None for every DAG when idle.

        DAG by DAG and server by server, each ready time is drawn from
        U(0, 3) s by a PCG64 generator on substream 3 of ``seed``.
        """
        if not self.busy:
            return [None] * self.n_dags
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(READY_STREAM,)))
        )
        draws = rng.uniform(*READY_RANGE_S, size=(self.n_dags, self.n_servers))
        return [
            {server: float(t) for server, t in enumerate(row)} for row in draws
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-idle", 6, 200, (2, 20), busy=False, late_entry=False),
        Workload("desk-busy", 6, 200, (2, 20), busy=True, late_entry=True),
        Workload("wide-busy", 10, 20, (20, 60), busy=True, late_entry=False),
    )
}


def _record(flops, edges, dst_out) -> DagRecord:
    dag = WorkloadDag(
        functions=tuple(FunctionNode(id=f, flops=fl) for f, fl in flops),
        edges=tuple(StreamEdge(src=s, dst=d, size=b) for s, d, b in edges),
    )
    return DagRecord(dag=dag, dst_out=dst_out)


def late_entry_records() -> list[DagRecord]:
    """Valid multi-entry DAGs whose stored topological order puts an entry
    after a non-entry. They do not depend on the seed; ``dpe`` rejects each
    of them today (``_require_entries_first`` in the embedder) although
    every edge runs forward in the stored order."""
    return [
        # 0 -> 1 -> 3 and entry 2 -> 3; entry 2 is stored after 1.
        _record(
            [(0, 4.0e9), (1, 6.0e9), (2, 3.0e9), (3, 5.0e9)],
            [(0, 1, 8.0e6), (1, 3, 6.0e6), (2, 3, 1.2e7)],
            {3: 7.0e6},
        ),
        # Two chains joined at 4; entry 3 is stored after 1 and 2.
        _record(
            [(0, 2.0e9), (1, 7.0e9), (2, 4.0e9), (3, 9.0e9), (4, 1.0e9)],
            [(0, 1, 5.0e6), (1, 2, 9.0e6), (2, 4, 1.1e7), (3, 4, 7.5e6)],
            {4: 1.0e7},
        ),
        # Entry 0 fans out to 1 and 2; entry 3 joins 2 at 4; 1 is a sink.
        _record(
            [(0, 5.0e9), (1, 2.5e9), (2, 8.0e9), (3, 6.5e9), (4, 3.5e9)],
            [(0, 1, 1.4e7), (0, 2, 6.5e6), (2, 4, 9.5e6), (3, 4, 1.3e7)],
            {1: 5.5e6, 4: 8.5e6},
        ),
    ]


# Ready times for the late-entry DAGs: fixed, so the set is the same on
# every seed.
def late_entry_ready(n_servers: int) -> dict[int, float]:
    return {server: 0.25 * server for server in range(n_servers)}
