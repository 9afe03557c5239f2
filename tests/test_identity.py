"""One digest over what the embedders return: "the same makespans" as a pin.

Each part hashes one set of outcomes as text: per embedding, the placements
in stored function order, the ``float.hex`` finish times and makespan, each
stream's mapped path nodes and ``float.hex`` allocations, and the
``simulate_embedding`` replay of it; a call that raises contributes its
error type and message instead. The parts are

- the three ``bench.ALGORITHMS`` runners, idle and with a seeded ready map,
  on the desk network (200 DAGs at seeds 0 and 1) and on the 10-server
  network (8 DAGs of 20-60 functions);
- ``brute`` against ``dpe`` on small DAGs with unit weights, which tie
  often, and on the same shapes with drawn weights and a ready map;
- ``optimal_split`` on the special values 0, -0, 5e-324, 1e308, inf and nan.

The digests were recorded once and are never re-recorded to pass: a change
that moves one names the part that moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from edge_embed import (
    EdgeEmbedError,
    SplitProblem,
    WorkloadSpec,
    brute_force_embed,
    build_catalog,
    dpe_embed,
    generate_dag_records,
    generate_network,
    optimal_split,
    simulate_embedding,
)
from edge_embed.bench import ALGORITHMS

from conftest import complete_network

# per part, sha256 over its outcomes; idle placement-only equals idle dpe,
# as no idle embedding splits a stream
PART_SHA256 = {
    "desk/dpe/idle": "60b2c425647f15f68249924dac80e67251fcb0abd3d0f056bb0744fcba0c75da",
    "desk/dpe/busy": "a5ebaf64f3775c1e5267296a05edc513b11cb47402946416df49d7c3213ede31",
    "desk/heft/idle": "41c2cf339281ba80f1f3193e1b480338da13491a10e94894fc900ce42c940586",
    "desk/heft/busy": "e509bc751c9cb45b76f4c88b5e9bef4142c72772b74f905c45896cff29b1e87c",
    "desk/placement-only/idle": "60b2c425647f15f68249924dac80e67251fcb0abd3d0f056bb0744fcba0c75da",
    "desk/placement-only/busy": "d14244e45dbdd2f2a43d95b95dc2d4c3bb4238d596daee9a7470bd0bb559aeb0",
    "wide/dpe/idle": "2681e8d8e68429fb2f074267fabb9c34cb6dd0d46e2d85675a255ef988328a73",
    "wide/dpe/busy": "c8e715704ca4d49003fd9153193d024f2428130e89e7c55f2f3839c57a7823b7",
    "wide/heft/idle": "9d71f22c145ee261b603c9501532bdc23f4b0780bfb28cb077fd374a439a53c6",
    "wide/heft/busy": "ab979efe6bdda22581ce38ea0b043726e13b1b641c3a5ffe672508c7fd6bcf30",
    "wide/placement-only/idle": "2681e8d8e68429fb2f074267fabb9c34cb6dd0d46e2d85675a255ef988328a73",
    "wide/placement-only/busy": "1f6f2e881166c471780b78f6e150194af0a07de0ea77359c207d1905656d6ad1",
    "brute-vs-dpe": "40b8185d664176e78df1a32b04667e133470269956db5633058703099912193b",
    "optimal-split": "0df1a063e44acf1a56b3939903c395d4c452dc99ffe7d51ab45c3074692e2bee",
}
# sha256 over the "name digest" lines of every part, in name order
IDENTITY_SHA256 = "367fc2e0288007785ccdbb9e8908d6f16f55eaee5e069ca144e8dee6c8794964"

SPECIAL = [0.0, -0.0, 5e-324, 1e308, float("inf"), float("nan")]


def _outcome(run) -> str:
    """``run()``'s text, or its error's type and message."""
    try:
        return run()
    except EdgeEmbedError as exc:
        return f"{type(exc).__name__}: {exc}"


def _embedding(runner, aug, net, catalog, ready) -> str:
    result = runner(aug, net, catalog, ready)
    replay, replay_span = simulate_embedding(
        aug, net, result.placements, result.edge_mappings, ready
    )
    lines = [
        " ".join(str(result.placements[f.id]) for f in aug.functions),
        " ".join(result.finish_times[f.id].hex() for f in aug.functions),
        result.makespan.hex(),
    ]
    for (src, dst), mapping in sorted(result.edge_mappings.items()):
        paths = ";".join("-".join(map(str, p.nodes)) for p in mapping.paths)
        allocations = " ".join(a.hex() for a in mapping.allocations)
        lines.append(f"{src}->{dst} {paths} {allocations}")
    lines.append(" ".join(replay[f.id].hex() for f in aug.functions))
    lines.append(replay_span.hex())
    return "\n".join(lines)


def _ready_maps(seed: int, n_dags: int, n_servers: int) -> list[dict[int, float]]:
    draws = np.random.default_rng(seed).uniform(0.0, 3.0, size=(n_dags, n_servers))
    return [{server: float(t) for server, t in enumerate(row)} for row in draws]


def _runner_parts(name: str, net, specs) -> dict[str, list[str]]:
    catalog = build_catalog(net)
    parts: dict[str, list[str]] = {}
    for spec in specs:
        augs = [record.augmented() for record in generate_dag_records(spec)]
        busy = _ready_maps(spec.seed, len(augs), net.n_servers)
        for algo, runner in ALGORITHMS.items():
            for mode, readies in (("idle", [None] * len(augs)), ("busy", busy)):
                parts.setdefault(f"{name}/{algo}/{mode}", []).extend(
                    _outcome(lambda: _embedding(runner, aug, net, catalog, ready))
                    for aug, ready in zip(augs, readies)
                )
    return parts


def _brute_part() -> list[str]:
    out = []
    for seed in range(24):
        spec = WorkloadSpec(seed=seed, n_servers=3, n_dags=1, dag_size_range=(3, 6))
        record = generate_dag_records(spec)[0]
        shape = record.dag
        unit = type(shape)(
            tuple(type(f)(f.id, 1.0) for f in shape.functions),
            tuple(type(e)(e.src, e.dst, 1.0) for e in shape.edges),
        )
        tie = type(record)(unit, {d: 1.0 for d in record.dst_out}).augmented()
        tie_net = complete_network(3)
        drawn_net = generate_network(spec)
        busy = _ready_maps(seed, 1, 3)[0]
        for aug, net, ready in ((tie, tie_net, None), (record.augmented(), drawn_net, busy)):
            catalog = build_catalog(net)
            for runner in (brute_force_embed, dpe_embed):
                out.append(_outcome(lambda: _embedding(runner, aug, net, catalog, ready)))
    return out


def _split_part() -> list[str]:
    def solve(coefficients, size) -> str:
        solution = optimal_split(SplitProblem(coefficients, size))
        allocations = " ".join(a.hex() for a in solution.allocations)
        return f"{solution.bottleneck_time.hex()} {allocations}"

    cases = [((a,), s) for a in SPECIAL + [1.0] for s in SPECIAL + [1.0]]
    cases += [((a, b), 1.0) for a, b in itertools.product(SPECIAL + [1.0], repeat=2)]
    return [_outcome(lambda: solve(a, s)) for a, s in cases]


def _parts() -> dict[str, str]:
    desk = generate_network(WorkloadSpec(seed=0, n_servers=6))
    wide = generate_network(WorkloadSpec(seed=0, n_servers=10))
    texts = {
        **_runner_parts("desk", desk, [WorkloadSpec(seed=s, n_servers=6) for s in (0, 1)]),
        **_runner_parts(
            "wide", wide,
            [WorkloadSpec(seed=0, n_servers=10, n_dags=8, dag_size_range=(20, 60))],
        ),
        "brute-vs-dpe": _brute_part(),
        "optimal-split": _split_part(),
    }
    return {
        name: hashlib.sha256("\n\n".join(lines).encode()).hexdigest()
        for name, lines in texts.items()
    }


def _total(parts: dict[str, str]) -> str:
    return hashlib.sha256(
        "".join(f"{name} {digest}\n" for name, digest in sorted(parts.items())).encode()
    ).hexdigest()


def test_identity_digest():
    parts = _parts()
    moved = sorted(name for name in parts if PART_SHA256.get(name) != parts[name])
    assert _total(parts) == IDENTITY_SHA256, f"parts moved: {moved}; now {parts}"
