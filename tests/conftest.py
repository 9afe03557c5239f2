"""Shared builders for networks and workloads used across the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from edge_embed import bench
from edge_embed import (
    FunctionNode,
    Link,
    Server,
    StreamEdge,
    WorkloadDag,
    WorkloadSpec,
    augment_dummy_tail,
    generate_dag_records,
    generate_network,
    make_network,
    validate_dag,
    validate_network,
)


def complete_network(n: int, throughput: float = 1.0, psi: float = 1.0):
    """K_n with uniform parameters; link ids follow the (i, j) pair order."""
    servers = [Server(id=i, psi=psi) for i in range(n)]
    links = []
    for i in range(n):
        for j in range(i + 1, n):
            links.append(Link(id=len(links), u=i, v=j, throughput=throughput))
    net = make_network(servers, links)
    validate_network(net)
    return net


def core_and_leaf_network(core: int):
    """K_core plus a leaf, server ``core``, linked only to server 0: one path
    joins 0 and the leaf, while every path of the core can leave server 0."""
    k = complete_network(core)
    net = make_network(
        [*k.servers, Server(core, 1.0)], [*k.links, Link(len(k.links), 0, core, 1.0)]
    )
    validate_network(net)
    return net


def triangle_network():
    """3 servers: direct 0-1 link is slower than the 0-2-1 detour."""
    net = make_network(
        [Server(0, 1.0), Server(1, 2.0), Server(2, 4.0)],
        [Link(0, 0, 1, 1.0), Link(1, 1, 2, 2.0), Link(2, 0, 2, 4.0)],
    )
    validate_network(net)
    return net


def small_random_network(rng: np.random.Generator, max_servers: int = 4):
    """A connected random network with 2..max_servers servers."""
    n = int(rng.integers(2, max_servers + 1))
    seed = int(rng.integers(0, 2**31))
    spec = WorkloadSpec(
        seed=seed,
        n_servers=n,
        connectivity=0.7,
        n_dags=1,
        psi_range=(0.5, 4.0),
        bandwidth_range=(0.5, 4.0),
        flops_range=(1.0, 10.0),
        stream_range=(1.0, 10.0),
    )
    return generate_network(spec)


def nested_networks(spec: WorkloadSpec, server_counts) -> list:
    """Networks of ``server_counts`` servers, each extending the one before:
    ``generate_network``'s draw, then from the same substream each new
    server's psi, one server it links to (so it stays connected), links to the
    others at the spec's connectivity and their throughputs. Ids are kept, so
    makespans compare like-for-like along the chain."""
    counts = sorted(server_counts)
    rng = bench._substream(spec.seed, bench.STREAM_NETWORK)
    nets = [bench._draw_network(replace(spec, n_servers=counts[0]), rng)]
    servers, links = list(nets[0].servers), list(nets[0].links)
    for count in counts[1:]:
        for new in range(len(servers), count):
            servers.append(Server(new, float(rng.uniform(*spec.psi_range))))
            anchor = int(rng.integers(0, new))
            ends = [u for u in range(new) if u != anchor and rng.random() < spec.connectivity]
            for u in [anchor, *ends]:
                links.append(Link(len(links), u, new, float(rng.uniform(*spec.bandwidth_range))))
        nets.append(make_network(servers, links))
    return nets


def scale_network(net, psi_factor: float = 1.0, throughput_factor: float = 1.0):
    """The same topology with every psi and every throughput multiplied by its factor."""
    return make_network(
        [Server(s.id, s.psi * psi_factor) for s in net.servers],
        [Link(l.id, l.u, l.v, l.throughput * throughput_factor) for l in net.links],
    )


def random_out_tree(rng: np.random.Generator, max_functions: int = 5):
    """A workload where every function has out-degree <= 1.

    Each function except the last points at one later function, so the
    shape is a forest of chains merging forward into function q-1. Entries
    may sit anywhere in the stored order, after non-entries too.
    """
    q = int(rng.integers(2, max_functions + 1))
    edges = []
    for i in range(q - 1):
        succ = int(rng.integers(i + 1, q))
        edges.append(StreamEdge(src=i, dst=succ, size=float(rng.uniform(1.0, 8.0))))
    functions = tuple(
        FunctionNode(id=i, flops=float(rng.uniform(1.0, 9.0))) for i in range(q)
    )
    dag = WorkloadDag(functions=functions, edges=tuple(edges))
    validate_dag(dag)
    sources = {e.src for e in edges}
    dst_out = {
        f.id: float(rng.uniform(1.0, 8.0)) for f in functions if f.id not in sources
    }
    return augment_dummy_tail(dag, dst_out)


def random_general_dag(rng: np.random.Generator, max_functions: int = 5):
    """A layered random workload (1..3 predecessors per non-entry)."""
    seed = int(rng.integers(0, 2**31))
    spec = WorkloadSpec(
        seed=seed,
        n_servers=2,
        connectivity=1.0,
        n_dags=1,
        dag_size_range=(2, max_functions),
        flops_range=(1.0, 9.0),
        stream_range=(1.0, 8.0),
    )
    record = generate_dag_records(spec)[0]
    return record.augmented()


def worked_example():
    """A hand-built distributed chain embedding that finishes at exactly 7.5 s.

    Three unit-flop functions sit on three unit-speed servers; server 3 is
    a slow relay. The first stream (5 bits) is split 1.5/3.5 across the
    direct link (2 s/bit) and the 0-3-1 relay (5/6 s/bit), so its slowest
    branch takes exactly 3 s. The second stream (3 bits) rides the single
    1-2 link at 0.5 s/bit for exactly 1.5 s, and the collector shares the
    last server. Timeline: 1 + 3 + 1 + 1.5 + 1 = 7.5, exact in binary.
    """
    from edge_embed import EdgeMapping, SimplePath

    net = make_network(
        [Server(0, 1.0), Server(1, 1.0), Server(2, 1.0), Server(3, 0.01)],
        [
            Link(0, 0, 1, 0.5),
            Link(1, 0, 3, 2.0),
            Link(2, 1, 3, 3.0),
            Link(3, 1, 2, 2.0),
        ],
    )
    validate_network(net)
    dag = WorkloadDag(
        functions=tuple(FunctionNode(i, 1.0) for i in range(3)),
        edges=(StreamEdge(0, 1, 5.0), StreamEdge(1, 2, 3.0)),
    )
    aug = augment_dummy_tail(dag, {2: 4.0})
    placements = {0: 0, 1: 1, 2: 2, 3: 2}
    direct = SimplePath(nodes=(0, 1), link_ids=(0,))
    relay = SimplePath(nodes=(0, 3, 1), link_ids=(1, 2))
    hop = SimplePath(nodes=(1, 2), link_ids=(3,))
    mappings = {
        (0, 1): EdgeMapping(paths=(direct, relay), allocations=(1.5, 3.5)),
        (1, 2): EdgeMapping(paths=(hop,), allocations=(3.0,)),
        (2, 3): EdgeMapping(),
    }
    return aug, net, placements, mappings, 7.5


def chain_dag(flops: list[float], sizes: list[float], dst_out: float = 1.0):
    """A linear workload f0 -> f1 -> ... with the given weights."""
    functions = tuple(
        FunctionNode(id=i, flops=float(c)) for i, c in enumerate(flops)
    )
    edges = tuple(
        StreamEdge(src=i, dst=i + 1, size=float(s)) for i, s in enumerate(sizes)
    )
    dag = WorkloadDag(functions=functions, edges=edges)
    validate_dag(dag)
    return augment_dummy_tail(dag, {len(flops) - 1: dst_out})


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)
