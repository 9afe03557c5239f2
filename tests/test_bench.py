"""Workload generation, benchmark runs, and report serialization."""

from __future__ import annotations

import json

import pytest

from edge_embed import (
    EdgeEmbedError,
    ReportBundle,
    SchemaError,
    WorkloadSpec,
    emit_report,
    generate_network,
    load_dag_records,
    load_network,
    nested_networks,
    network_fingerprint,
    run_benchmark,
    scale_network,
    validate_dag,
    validate_network,
    write_workload,
)
from edge_embed.bench import generate_dag_records
from edge_embed.model import dag_to_json

SMALL = WorkloadSpec(
    seed=7,
    n_servers=3,
    connectivity=0.8,
    n_dags=5,
    dag_size_range=(2, 6),
)


# ---------------------------------------------------------------------------
# network generation
# ---------------------------------------------------------------------------


def test_generate_network_is_deterministic():
    a = generate_network(SMALL)
    b = generate_network(SMALL)
    assert a.servers == b.servers
    assert a.links == b.links


def test_generate_network_respects_ranges():
    net = generate_network(WorkloadSpec(seed=3, n_servers=8, connectivity=0.9))
    validate_network(net)
    for s in net.servers:
        assert 2.0e10 <= s.psi <= 4.0e10
    for l in net.links:
        assert 3.0e7 <= l.throughput <= 8.0e7


def test_full_connectivity_yields_complete_graph():
    net = generate_network(WorkloadSpec(seed=1, n_servers=4, connectivity=1.0))
    assert len(net.links) == 6


def test_hopeless_connectivity_raises_after_bounded_attempts():
    spec = WorkloadSpec(seed=2, n_servers=8, connectivity=0.001)
    with pytest.raises(
        EdgeEmbedError, match="no connected network found after 1000 attempts"
    ):
        generate_network(spec)


def test_different_seeds_give_different_networks():
    a = generate_network(WorkloadSpec(seed=10, n_servers=5, connectivity=0.8))
    b = generate_network(WorkloadSpec(seed=11, n_servers=5, connectivity=0.8))
    assert [s.psi for s in a.servers] != [s.psi for s in b.servers]


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(connectivity=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(connectivity=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(n_dags=0)
    with pytest.raises(ValueError):
        WorkloadSpec(dag_size_range=(0, 5))
    with pytest.raises(ValueError):
        WorkloadSpec(psi_range=(4.0e10, 2.0e10))


# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------


def test_dag_batch_is_deterministic_and_in_range():
    first = [
        dag_to_json(r.dag, r.dst_out) for r in generate_dag_records(SMALL)
    ]
    second = [
        dag_to_json(r.dag, r.dst_out) for r in generate_dag_records(SMALL)
    ]
    assert first == second
    for record in generate_dag_records(SMALL):
        dag = record.dag
        validate_dag(dag)
        assert 2 <= len(dag.functions) <= 6
        for f in dag.functions:
            assert 1.0e9 <= f.flops <= 1.0e10
        for e in dag.edges:
            assert 5.0e6 <= e.size <= 1.5e7
        # layered shape: exactly one entry, at most 3 inputs per function
        assert [f for f, preds in dag.predecessors.items() if not preds] == [0]
        for fid in dag.predecessors:
            assert len(dag.predecessors[fid]) <= 3


def test_records_augment_cleanly():
    for record in generate_dag_records(SMALL):
        aug = record.augmented()
        assert aug.by_id[aug.dummy_id].is_dummy


# ---------------------------------------------------------------------------
# persistence and import
# ---------------------------------------------------------------------------


def test_write_workload_round_trips(tmp_path):
    net_path, dags_path = write_workload(SMALL, tmp_path)
    net = load_network(net_path)
    assert net.servers == generate_network(SMALL).servers
    records = load_dag_records(dags_path)
    assert len(records) == SMALL.n_dags
    originals = generate_dag_records(SMALL)
    for loaded, original in zip(records, originals):
        assert loaded.dag == original.dag
        assert loaded.dst_out == original.dst_out


def test_import_dags_happy_path(tmp_path):
    docs = [dag_to_json(r.dag, r.dst_out) for r in generate_dag_records(SMALL)[:2]]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(docs), encoding="utf-8")
    assert len(load_dag_records(path)) == 2


def test_import_dags_names_the_bad_record(tmp_path):
    good = dag_to_json(
        generate_dag_records(SMALL)[0].dag, generate_dag_records(SMALL)[0].dst_out
    )
    cyclic = {
        "functions": [{"id": 0, "flops": 1.0}, {"id": 1, "flops": 1.0}],
        "edges": [
            {"src": 0, "dst": 1, "bits": 1.0},
            {"src": 1, "dst": 0, "bits": 1.0},
        ],
        "dst_out": {},
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps([good, cyclic]), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_dag_records(path)
    assert exc.value.record_index == 1


def test_import_dags_rejects_missing_field(tmp_path):
    doc = {
        "functions": [{"id": 0, "flops": 1.0}, {"id": 1, "flops": 1.0}],
        "edges": [{"src": 0, "dst": 1}],  # bits missing
        "dst_out": {"1": 1.0},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps([doc]), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_dag_records(path)
    assert exc.value.record_index == 0


def test_import_dags_rejects_non_array(tmp_path):
    path = tmp_path / "object.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_dag_records(path)


def test_import_dags_rejects_invalid_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_dag_records(path)


def test_import_dags_empty_array(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    assert load_dag_records(path) == []


# ---------------------------------------------------------------------------
# derived networks
# ---------------------------------------------------------------------------


def test_scale_network_scales_uniformly():
    net = generate_network(SMALL)
    scaled = scale_network(net, psi_factor=2.0, throughput_factor=3.0)
    for before, after in zip(net.servers, scaled.servers):
        assert after.id == before.id
        assert after.psi == before.psi * 2.0
    for before, after in zip(net.links, scaled.links):
        assert (after.u, after.v) == (before.u, before.v)
        assert after.throughput == before.throughput * 3.0


def test_network_fingerprint_tracks_content():
    net = generate_network(SMALL)
    fp = network_fingerprint(net)
    assert len(fp) == 12
    assert fp == network_fingerprint(net)
    assert fp != network_fingerprint(scale_network(net, psi_factor=2.0))


def test_nested_networks_grow_by_extension():
    spec = WorkloadSpec(seed=4, n_servers=6, connectivity=0.6, n_dags=1)
    nets = nested_networks(spec, [3, 5, 6])
    assert [n.n_servers for n in nets] == [3, 5, 6]
    for smaller, larger in zip(nets, nets[1:]):
        validate_network(larger)
        # the smaller network is a literal prefix of the larger one
        assert larger.servers[: smaller.n_servers] == smaller.servers
        assert larger.links[: len(smaller.links)] == smaller.links


def test_nested_networks_reject_duplicate_counts():
    with pytest.raises(ValueError):
        nested_networks(SMALL, [3, 3])


# ---------------------------------------------------------------------------
# benchmark runs and reports
# ---------------------------------------------------------------------------

ALGOS = ["dpe", "heft", "placement-only"]


def bundle_for(spec: WorkloadSpec, timing: str = "off") -> ReportBundle:
    return run_benchmark(ALGOS, spec=spec, timing=timing)


def test_run_benchmark_bundle_shape():
    bundle = bundle_for(SMALL)
    assert bundle.algorithms == tuple(ALGOS)
    assert bundle.n_dags == SMALL.n_dags
    assert len(bundle.trials) == SMALL.n_dags * len(ALGOS)
    assert bundle.seed == SMALL.seed
    # trials arrive sorted by (dag id, algorithm name)
    keys = [(t.dag_id, t.algo) for t in bundle.trials]
    assert keys == sorted(keys)
    for algo in ALGOS:
        spans = [t.makespan_s for t in bundle.trials if t.algo == algo]
        assert bundle.mean_makespan[algo] == pytest.approx(
            sum(spans) / len(spans), rel=1e-12
        )
        cdf = bundle.cdf[algo]
        assert [f for _, f in cdf] == [
            (k + 1) / len(spans) for k in range(len(spans))
        ]
        assert [s for s, _ in cdf] == sorted(spans)
    assert len(bundle.reductions) == 6  # ordered pairs of 3 algorithms
    expected = (
        bundle.mean_makespan["heft"] - bundle.mean_makespan["dpe"]
    ) / bundle.mean_makespan["heft"]
    assert bundle.reductions["dpe_over_heft"] == pytest.approx(expected, rel=1e-12)


def test_run_benchmark_accepts_explicit_workload():
    net = generate_network(SMALL)
    records = generate_dag_records(SMALL)
    bundle = run_benchmark(["dpe"], network=net, dag_records=records, timing="off")
    assert bundle.seed is None
    assert bundle.n_dags == len(records)
    assert bundle.network_fingerprint == network_fingerprint(net)


def test_run_benchmark_rejects_bad_requests():
    net = generate_network(SMALL)
    records = generate_dag_records(SMALL)
    with pytest.raises(ValueError):
        run_benchmark([], spec=SMALL)
    with pytest.raises(ValueError):
        run_benchmark(["nope"], spec=SMALL)
    with pytest.raises(ValueError):
        run_benchmark(["dpe", "dpe"], spec=SMALL)
    with pytest.raises(ValueError):
        run_benchmark(["dpe"], spec=SMALL, network=net, dag_records=records)
    with pytest.raises(ValueError):
        run_benchmark(["dpe"])
    with pytest.raises(ValueError):
        run_benchmark(["dpe"], spec=SMALL, timing="sometimes")


def test_timing_off_zeroes_runtimes_and_wall_records_them():
    off = bundle_for(SMALL, timing="off")
    assert all(t.runtime_s == 0.0 for t in off.trials)
    assert all(v == 0.0 for v in off.runtime_totals.values())
    wall = bundle_for(SMALL, timing="wall")
    assert all(t.runtime_s >= 0.0 for t in wall.trials)
    assert all(v > 0.0 for v in wall.runtime_totals.values())
    # makespans are identical either way; timing never touches results
    assert [t.makespan_s for t in off.trials] == [t.makespan_s for t in wall.trials]


def test_emit_report_files_and_headers(tmp_path):
    bundle = bundle_for(SMALL)
    written = emit_report(bundle, tmp_path)
    names = sorted(p.name for p in written)
    assert names == [
        "cdf_dpe.csv",
        "cdf_heft.csv",
        "cdf_placement-only.csv",
        "summary.json",
        "trials.csv",
    ]
    trials = (tmp_path / "trials.csv").read_text(encoding="utf-8").splitlines()
    assert trials[0] == "dag_id,algo,makespan_s,runtime_s,dag_size"
    assert len(trials) == 1 + len(bundle.trials)
    cdf = (tmp_path / "cdf_dpe.csv").read_text(encoding="utf-8").splitlines()
    assert cdf[0] == "makespan_s,fraction"
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["algorithms"] == ALGOS
    assert summary["n_dags"] == SMALL.n_dags
    assert summary["seed"] == SMALL.seed
    assert set(summary["mean_makespan_s"]) == set(ALGOS)


def test_reports_are_byte_identical_with_timing_off(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    emit_report(bundle_for(SMALL, timing="off"), first)
    emit_report(bundle_for(SMALL, timing="off"), second)
    for name in ("summary.json", "trials.csv", "cdf_dpe.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
