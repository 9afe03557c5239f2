"""The shared dynamic program's output on a fixed set of desk DAGs, frozen.

Each embedding's makespan (as ``float.hex()``) and placement tuple, in
stored function order, are literals, so a later change to the DP that
alters a single bit of any result fails here. Rows hold, per DAG, ``dpe``
on idle servers, ``dpe`` with ``READY``, and ``placement-only``. One digest
pins every finish time of those three rows, and one every stream mapping of
``dpe`` with ``READY``. The list
scheduler's makespans and placements are literals too, with one digest over
its finish times and stream mappings, and one digest pins the replayed
finish times of every embedding above. One more pins the list scheduler's
upward ranks, which order its placements.
"""

from __future__ import annotations

import hashlib

import pytest

from edge_embed import (
    WorkloadSpec,
    build_catalog,
    dpe_embed,
    generate_dag_records,
    generate_network,
    heft_schedule,
    passive_routes,
    placement_only_embed,
    simulate_embedding,
)
from edge_embed.baselines import _upward_rank
from edge_embed.embedder import _processing_table

READY = {0: 1.5, 1: 0.0, 2: 2.25, 3: 0.75, 4: 3.0, 5: 0.5}

# sha256 over the float.hex finish times of every function of dpe (idle and
# with READY) and placement-only on the 20 DAGs
FINISH_SHA256 = "3548d1e03225ab981522c263eed04cb7de9a5733cea33097e12d759d1eb22332"

# sha256 over the path nodes and float.hex allocations of every stream of
# dpe with READY on the 20 DAGs, 74 of which cross servers
MAPPINGS_SHA256 = "d21108a7377a5beb2faf4cc9f7f799eaffb9e75f0dafc312a6d93f0dab57cf53"

# sha256 over the float.hex finish times and the stream mappings (path
# nodes, float.hex allocations) of heft on the 20 DAGs
HEFT_SHA256 = "4d57798759ef6584a5c56df522adad9907c1bccf6a1685f662c7383c1ef6cc6b"

# sha256 over the float.hex finish times that simulate_embedding replays
# from dpe (idle and with READY), placement-only and heft on the 20 DAGs
REPLAY_SHA256 = "d5432774a87397d843ec2104bc66fe6ce9ac47e96880b7e1ea324167e4b1b3f3"

# sha256 over the float.hex upward ranks, in stored function order, that
# heft orders the 20 DAGs by
RANK_SHA256 = "df2607e5e30d5eddf74b8301b15e683c48a3e23c78256a2ff731044c5651334d"

HEFT_FROZEN = [
    ('0x1.3736f3ab70bddp+0', (0, 0, 0, 0, 1, 0, 3, 1, 0, 3, 0, 1, 3, 1, 0)),
    ('0x1.5d477d1ab1cddp+0', (0, 0, 3, 3, 1, 0, 3, 0, 1, 0, 1, 0, 4, 0, 0, 0, 1, 0, 0)),
    ('0x1.834c431118fcfp+0', (0, 0, 0, 0, 0, 0, 3, 1, 5, 2, 1, 0, 0, 2, 0, 1)),
    ('0x1.66d8ffaa5ea7ep-2', (0, 0, 0)),
    ('0x1.6c0d5b3ec9a80p-1', (0, 0, 0, 0, 0)),
    ('0x1.71e07e11c7f44p-1', (0, 0, 0, 0, 0, 0, 0)),
    ('0x1.3eb5c60a07f82p-1', (0, 0, 0, 0, 0)),
    ('0x1.13eaacde7544ap+0', (0, 0, 0, 0, 0, 0, 0, 1, 0)),
    ('0x1.f2d2adf6fe68bp+0', (0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 1)),
    ('0x1.c0ce35de0a7ebp+0', (0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 1, 0, 0, 1, 1)),
    ('0x1.0621642f0ffa8p+1', (0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 2, 0, 2, 3, 0)),
    ('0x1.49a1e5b79edb0p+0', (0, 0, 0, 0, 3, 0, 0, 1, 0, 1, 0, 0)),
    ('0x1.c86d5a06741ecp+0', (0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 1, 1, 1, 2, 3, 1, 0, 0, 1)),
    ('0x1.51c78ffe2de63p+0', (0, 0, 0, 0, 1, 0, 0, 0, 1, 3, 1, 1)),
    ('0x1.5545018fa5fd4p-1', (0, 0, 0, 0, 0, 0, 0)),
    ('0x1.9d655c553d28dp-2', (0, 0, 0, 0, 0)),
    ('0x1.9c0e9b0c8446cp-1', (0, 0, 0, 0, 0, 0)),
    ('0x1.56d74b0b024cbp+0', (0, 0, 0, 1, 0, 1, 3, 0, 3, 0, 1, 0, 3, 0, 0)),
    ('0x1.c9e8f0753eb76p-2', (0, 0, 0, 0)),
    ('0x1.2bc37a8432562p-2', (0, 0, 0)),
]

FROZEN = [
    (
        ('0x1.d81284af0fd48p-1', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.00729da11e266p+0', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.d81284af0fd48p-1', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.016aab198c17dp+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.1a141f74a14eep+0', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.016aab198c17dp+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.3c8dcbbb56516p+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.740d343bbcdeap+0', (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.3c8dcbbb56516p+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.66d8ffaa5ea7ep-2', (0, 0, 0)),
        ('0x1.e94b3938d6034p-2', (1, 0, 0)),
        ('0x1.66d8ffaa5ea7ep-2', (0, 0, 0)),
    ),
    (
        ('0x1.112b9f840e2b2p-1', (0, 0, 0, 0, 0)),
        ('0x1.4fab12155cb04p-1', (1, 0, 0, 0, 0)),
        ('0x1.112b9f840e2b2p-1', (0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.bb0d802143554p-2', (0, 0, 0, 0, 0, 0, 0)),
        ('0x1.17924d3529136p-1', (1, 0, 1, 0, 0, 0, 0)),
        ('0x1.bb0d802143554p-2', (0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.3eb5c60a07f82p-1', (0, 0, 0, 0, 0)),
        ('0x1.7e8d726d5df28p-1', (1, 1, 0, 0, 0)),
        ('0x1.3eb5c60a07f82p-1', (0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.abb92212e9b1ap-1', (0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.dc22b663bbdefp-1', (1, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.abb92212e9b1ap-1', (0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.5d5e32b84163bp+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.7f53da24de625p+0', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.5d5e32b84163bp+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.10a307a502e16p+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.43114f23116aep+0', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.10a307a502e16p+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.bbdaba27f13ecp+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.f801231c95f3ap+0', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.bbdaba27f13ecp+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.e644e66cc77cap-1', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.14984c5a318f6p+0', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.e644e66cc77cap-1', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.3a95624fc415bp+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.614640db6c986p+0', (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.3a95624fc415bp+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.07eb4bc9146e7p+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.2f48d4f915529p+0', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.07eb4bc9146e7p+0', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.ebb35ad0f3730p-2', (0, 0, 0, 0, 0, 0, 0)),
        ('0x1.3b02916e43582p-1', (1, 0, 0, 0, 0, 0, 0)),
        ('0x1.ebb35ad0f3730p-2', (0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.9d655c553d28dp-2', (0, 0, 0, 0, 0)),
        ('0x1.1abb5c8874d40p-1', (1, 0, 0, 0, 0)),
        ('0x1.9d655c553d28dp-2', (0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.9c0e9b0c8446cp-1', (0, 0, 0, 0, 0, 0)),
        ('0x1.e8a9e26e8d1b1p-1', (1, 0, 0, 0, 0, 0)),
        ('0x1.9c0e9b0c8446cp-1', (0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.6b28b046cc877p-1', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.a4fff183a3a0dp-1', (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('0x1.6b28b046cc877p-1', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (
        ('0x1.c9e8f0753eb76p-2', (0, 0, 0, 0)),
        ('0x1.0d5343a5128ebp-1', (1, 0, 0, 0)),
        ('0x1.c9e8f0753eb76p-2', (0, 0, 0, 0)),
    ),
    (
        ('0x1.2bc37a8432562p-2', (0, 0, 0)),
        ('0x1.ba74dd58654d5p-2', (1, 1, 1)),
        ('0x1.2bc37a8432562p-2', (0, 0, 0)),
    ),
]


@pytest.fixture(scope="module")
def desk():
    net = generate_network(WorkloadSpec(seed=0))
    records = generate_dag_records(WorkloadSpec(seed=11, n_dags=len(FROZEN)))
    return net, build_catalog(net), [r.augmented() for r in records]


@pytest.mark.parametrize("k", range(len(FROZEN)))
def test_dp_output_is_frozen(desk, k):
    net, catalog, dags = desk
    aug = dags[k]
    results = (
        dpe_embed(aug, net, catalog),
        dpe_embed(aug, net, catalog, READY),
        placement_only_embed(aug, net, catalog),
    )
    got = tuple(
        (r.makespan.hex(), tuple(r.placements[f.id] for f in aug.functions))
        for r in results
    )
    assert got == FROZEN[k]


def test_dp_finish_times_are_frozen(desk):
    net, catalog, dags = desk
    digest = hashlib.sha256()
    for aug in dags:
        for result in (
            dpe_embed(aug, net, catalog),
            dpe_embed(aug, net, catalog, READY),
            placement_only_embed(aug, net, catalog),
        ):
            finish = [(f, t.hex()) for f, t in sorted(result.finish_times.items())]
            digest.update(repr(finish).encode())
    assert digest.hexdigest() == FINISH_SHA256


def test_dp_stream_mappings_are_frozen(desk):
    net, catalog, dags = desk
    digest = hashlib.sha256()
    for aug in dags:
        result = dpe_embed(aug, net, catalog, READY)
        for edge, mapping in sorted(result.edge_mappings.items()):
            nodes = [p.nodes for p in mapping.paths]
            allocations = [z.hex() for z in mapping.allocations]
            digest.update(repr((edge, nodes, allocations)).encode())
    assert digest.hexdigest() == MAPPINGS_SHA256


def _mapping_key(edge, mapping) -> str:
    nodes = [p.nodes for p in mapping.paths]
    allocations = [z.hex() for z in mapping.allocations]
    return repr((edge, nodes, allocations))


def test_heft_output_is_frozen(desk):
    net, catalog, dags = desk
    routes = passive_routes(catalog)
    got = []
    digest = hashlib.sha256()
    for aug in dags:
        result = heft_schedule(aug, net, routes)
        got.append(
            (result.makespan.hex(), tuple(result.placements[f.id] for f in aug.functions))
        )
        finish = [(f, t.hex()) for f, t in sorted(result.finish_times.items())]
        digest.update(repr(finish).encode())
        for edge, mapping in sorted(result.edge_mappings.items()):
            digest.update(_mapping_key(edge, mapping).encode())
    assert got == HEFT_FROZEN
    assert digest.hexdigest() == HEFT_SHA256


def test_heft_ranks_are_frozen(desk):
    net, catalog, dags = desk
    coeff = passive_routes(catalog).cheapest_coefficient.tolist()
    digest = hashlib.sha256()
    for aug in dags:
        rank = _upward_rank(aug, _processing_table(aug, net).tolist(), coeff)
        digest.update(repr([(f.id, rank[f.id].hex()) for f in aug.functions]).encode())
    assert digest.hexdigest() == RANK_SHA256


def test_replayed_finish_times_are_frozen(desk):
    net, catalog, dags = desk
    routes = passive_routes(catalog)
    digest = hashlib.sha256()
    for aug in dags:
        for result, ready in (
            (dpe_embed(aug, net, catalog), None),
            (dpe_embed(aug, net, catalog, READY), READY),
            (placement_only_embed(aug, net, catalog), None),
            (heft_schedule(aug, net, routes), None),
        ):
            finish, makespan = simulate_embedding(
                aug, net, result.placements, result.edge_mappings, ready
            )
            replayed = [(f, t.hex()) for f, t in sorted(finish.items())]
            digest.update(repr((replayed, makespan.hex())).encode())
    assert digest.hexdigest() == REPLAY_SHA256
