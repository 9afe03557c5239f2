"""Workload generation, benchmark runs, and report serialization."""

from __future__ import annotations

import builtins
import hashlib
import json
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from edge_embed import (
    EdgeEmbedError,
    FunctionNode,
    Link,
    ReportBundle,
    Server,
    SplitProblem,
    ValidationError,
    WorkloadSpec,
    brute_force_embed,
    build_catalog,
    emit_report,
    generate_network,
    load_dag_records,
    make_network,
    network_from_json,
    optimal_split,
    run_benchmark,
    validate_dag,
    validate_network,
    write_workload,
)
from edge_embed import bench, model
from edge_embed.bench import (
    ALGORITHMS,
    MAX_DAG_SIZE,
    _bounded,
    _floyd_sample,
    _uniform,
    _unit_doubles,
    _words32,
    generate_dag_records,
)
from edge_embed.model import _sum_left, canonical_json, dag_to_json, validate_time_range

from conftest import nested_networks, scale_network

# sha256 over the canonical JSON of every DAG record that WorkloadSpec(seed=s,
# n_dags=50, dag_size_range=r) generates, s in 0..2, r in (2, 20), (20, 60),
# (1, 3), recorded when predecessors were drawn by Generator.choice
GENERATED_SHA256 = "5986cb779ab88f7f371104f7a17655aed3b119992cb377abfb8707fe1f67c1ed"

# sha256 over the float.hex of every server power, then the ends and the
# float.hex throughput of every link, of generate_network(WorkloadSpec(seed=s,
# n_servers=n, connectivity=p)), s in 0..19, n in 1, 2, 3, 6, 10, 14, p in
# 0.1, 0.3, 0.5, 0.8, 1.0, recorded when the network was drawn by
# Generator.uniform and Generator.random
NETWORK_SHA256 = "ce51d8d4afd66818c813ae90bc53b54982a90d131f1d1bb716d66c66978c25a2"

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
    counts = [
        ("n_dags", 2.5), ("seed", 1.5), ("n_servers", 3.5), ("seed", True),
        ("n_dags", True), ("dag_size_range", (2.5, 4)), ("dag_size_range", (2, False)),
    ]
    for name, bad in counts:
        with pytest.raises(ValidationError, match=f"^{name}: .* is not an integer"):
            WorkloadSpec(**{name: bad})
    reals = [
        ("psi_range", ("1", "2")), ("flops_range", (1.0e9, "1e10")),
        ("stream_range", (True, 2.0)), ("bandwidth_range", (None, 1.0)),
        ("connectivity", True), ("connectivity", "0.5"),
    ]
    for name, bad in reals:
        with pytest.raises(ValidationError, match=f"^{name}: .* is not a number"):
            WorkloadSpec(**{name: bad})
    pairs = [
        ("psi_range", (1.0,)), ("dag_size_range", (2, 4, 6)), ("flops_range", ()),
        ("stream_range", 5.0e6), ("bandwidth_range", None), ("dag_size_range", 3),
        ("psi_range", {1.0, 2.0}),
    ]
    for name, bad in pairs:
        with pytest.raises(ValidationError, match=rf"^{name}: .* is not a \(lo, hi\) pair"):
            WorkloadSpec(**{name: bad})


def test_spec_rejects_a_seed_no_report_can_write(tmp_path):
    # summary.json holds the seed, and json.dumps writes an int of at most
    # 4,300 digits, or fewer where sys.set_int_max_str_digits lowers that bound
    for seed in (10**5000, 10**4300):
        with pytest.raises(ValidationError, match="at most 4,300 digits"):
            WorkloadSpec(seed=seed)
    longest = 10**4300 - 1
    emit_report(run_benchmark(["dpe"], spec=replace(SMALL, seed=longest, n_dags=1)), tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["seed"] == longest
    if not hasattr(sys, "set_int_max_str_digits"):
        return  # this Python has no bound to lower
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValidationError, match="at most 640 digits"):
            WorkloadSpec(seed=10**699)
        assert WorkloadSpec(seed=10**640 - 1).seed == 10**640 - 1
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "name", ["flops_range", "stream_range", "psi_range", "bandwidth_range"]
)
@pytest.mark.parametrize("bad", [math.inf, math.nan, 10**400])
def test_spec_rejects_non_finite_range_ends(name, bad):
    lo, hi = getattr(WorkloadSpec(), name)
    for ends in ((lo, bad), (bad, hi), (bad, bad)):
        with pytest.raises(ValidationError, match="finite"):
            WorkloadSpec(**{name: ends})


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
    # Generation does not validate: every DAG must be valid by construction.
    for size_range in ((2, 6), (1, 1), (20, 60), (150, 200)):
        lo, hi = size_range
        for record in generate_dag_records(replace(SMALL, dag_size_range=size_range)):
            dag = record.dag
            validate_dag(dag)
            assert lo <= len(dag.functions) <= hi
            for f in dag.functions:
                assert 1.0e9 <= f.flops <= 1.0e10
            for e in dag.edges:
                assert 5.0e6 <= e.size <= 1.5e7
            aug = record.augmented()
            inputs, consumers = aug.stream_table
            assert sum(map(len, inputs)) == sum(consumers) == len(aug.edges)
            # the destinations feed the collector, which alone has no stream out
            assert [f for f, count in enumerate(consumers) if not count] == [aug.dummy_id]
            sinks = tuple(f for f, _ in inputs[aug.dummy_id])
            sources = {e.src for e in dag.edges}
            assert tuple(f.id for f in dag.functions if f.id not in sources) == sinks
            assert sinks == tuple(record.dst_out)
            # layered shape: exactly one entry, at most 3 inputs per function
            assert [f for f, row in enumerate(inputs) if not row] == [0]
            for row in inputs[: aug.dummy_id]:
                assert len(row) <= 3


def test_generated_workloads_are_frozen():
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        for size_range in ((2, 20), (20, 60), (1, 3)):
            spec = WorkloadSpec(seed=seed, n_dags=50, dag_size_range=size_range)
            for record in generate_dag_records(spec):
                doc = dag_to_json(record.dag, record.dst_out)
                digest.update(canonical_json(doc).encode())
    assert digest.hexdigest() == GENERATED_SHA256


def test_generated_networks_are_frozen():
    digest = hashlib.sha256()
    for seed in range(20):
        for n in (1, 2, 3, 6, 10, 14):
            for p in (0.1, 0.3, 0.5, 0.8, 1.0):
                net = generate_network(WorkloadSpec(seed=seed, n_servers=n, connectivity=p))
                for server in net.servers:
                    digest.update(f"{server.psi.hex()}\n".encode())
                for link in net.links:
                    digest.update(f"{link.u} {link.v} {link.throughput.hex()}\n".encode())
    assert digest.hexdigest() == NETWORK_SHA256


def test_floyd_sample_matches_choice():
    pairs = [(pos, k) for pos in range(1, 41) for k in range(1, min(3, pos) + 1)]
    for seed in range(200):
        ours = _words32(np.random.PCG64(seed))
        theirs = np.random.default_rng(seed)
        random.Random(seed).shuffle(pairs)
        for pos, k in pairs:
            expected = sorted(int(p) for p in theirs.choice(pos, size=k, replace=False))
            assert _floyd_sample(ours, pos, k) == expected
            # one full 32-bit word per side: equal only while both streams
            # stand at the same word
            assert _bounded(ours, 0, 2**32) == int(theirs.integers(0, 2**32))


# spans numpy draws through Lemire's rule on 32-bit words: the generator's
# small ones, and large ones of which 2**31 + 1 and 2**31 + 3 redraw about
# half the time and 3 * 2**30 + 1 a quarter of the time
SMALL_SPANS = range(1, 71)
LARGE_SPANS = (2**31, 2**31 + 1, 2**31 + 3, 3 * 2**30 + 1, 2**32 - 1, 2**32)


def test_bounded_matches_integers():
    redraws = 0
    for seed in range(100):
        order = random.Random(seed)
        words = _words32(np.random.PCG64(seed))
        read = 0

        def counted():
            nonlocal read
            for word in words:
                read += 1
                yield word

        ours = counted()
        theirs = np.random.default_rng(seed)
        spent = 0  # words a draw without redraws reads
        for _ in range(2000):
            span = order.choice(SMALL_SPANS if order.random() < 0.5 else LARGE_SPANS)
            lo = order.randrange(-3, 4)
            # every draw compared, so one misaligned draw fails all later ones
            assert _bounded(ours, lo, lo + span) == int(theirs.integers(lo, lo + span))
            spent += span > 1
        redraws += read - spent
    assert redraws > 20_000


def test_uniform_scales_raw_words_like_generator_uniform():
    # the last seven ranges have float32, Fraction and int ends: uniform
    # makes both ends floats before it subtracts, where a float32 span would
    # round to single precision and an exact int or Fraction span would not
    # round at all
    ranges = [
        (0.0, 1.0), (1.0e9, 1.0e10), (5.0e6, 1.5e7), (2.0e10, 4.0e10),
        (3.0, 3.0), (1.0e-300, 1.0e300), (0.1, 0.1 + 1e-15),
        (np.float32(1e9), np.float32(1e10)), (np.float32(0.1), 1.0),
        (Fraction(1, 3), Fraction(2, 3)), (Fraction(10**10, 3), 10**10),
        (1, 10), (3, 2**60 + 1), (2**53 + 1, 2**53 + 3),
    ]
    for seed in range(50):
        ours = np.random.PCG64(seed)
        theirs = np.random.default_rng(seed)
        for size in (0, 1, 2, 7, 300):
            for lo, hi in ranges:
                got = _uniform(_unit_doubles(ours, size), lo, hi)
                assert [type(x) for x in got] == size * [float]
                assert [x.hex() for x in got] == [
                    x.hex() for x in theirs.uniform(lo, hi, size).tolist()
                ]


def test_float32_ranges_draw_python_float_weights_like_generator_uniform():
    flops_range = np.float32(1e9), np.float32(1.5e10)
    stream_range = np.float32(5e6), np.float32(1.5e7)
    for seed in range(3):
        spec = WorkloadSpec(
            seed=seed, n_dags=20, flops_range=flops_range, stream_range=stream_range
        )
        theirs = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(bench.STREAM_WEIGHTS,))
        )
        for record in generate_dag_records(spec):
            flops = [f.flops for f in record.dag.functions]
            bits = [e.size for e in record.dag.edges] + list(record.dst_out.values())
            assert {type(w) for w in flops + bits} == {float}
            assert flops == theirs.uniform(*flops_range, len(flops)).tolist()
            assert bits == theirs.uniform(*stream_range, len(bits)).tolist()


class _RawWords:
    """A substream that exposes only PCG64's raw words, so generation fails
    at any call of a ``Generator`` sampling method."""

    def __init__(self, seed: int, stream: int):
        bit_generator = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,)))
        self.random_raw = bit_generator.random_raw


def test_generation_reads_only_raw_words(monkeypatch):
    specs = [
        SMALL,
        WorkloadSpec(seed=3, n_dags=20, dag_size_range=(20, 60)),
        WorkloadSpec(seed=4, n_servers=10, connectivity=0.2, n_dags=30, dag_size_range=(1, 3)),
    ]
    expected = [(generate_network(spec), generate_dag_records(spec)) for spec in specs]
    monkeypatch.setattr(bench, "_substream", _RawWords)
    assert [(generate_network(spec), generate_dag_records(spec)) for spec in specs] == expected


def test_spec_caps_dag_sizes_at_32_bit_spans():
    WorkloadSpec(dag_size_range=(1, MAX_DAG_SIZE))
    for size_range in ((2, MAX_DAG_SIZE + 1), (MAX_DAG_SIZE, 2**40)):
        with pytest.raises(ValidationError, match="^DAG sizes must be <= 2147483647$"):
            WorkloadSpec(dag_size_range=size_range)


def test_records_augment_cleanly():
    for record in generate_dag_records(SMALL):
        aug = record.augmented()
        assert aug.functions[-1] == FunctionNode(aug.dummy_id, 0.0)


# ---------------------------------------------------------------------------
# persistence and import
# ---------------------------------------------------------------------------


def test_write_workload_round_trips(tmp_path):
    net_path, dags_path = write_workload(SMALL, tmp_path)
    net = network_from_json(json.loads(net_path.read_text(encoding="utf-8")))
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


def test_import_dags_checks_the_tail_without_augmenting(tmp_path, monkeypatch):
    records = generate_dag_records(SMALL)[:2]
    path = tmp_path / "two.json"
    path.write_text(json.dumps([dag_to_json(r.dag, r.dst_out) for r in records]))

    def augment(*args):
        raise AssertionError("augmented at load time")

    monkeypatch.setattr(bench, "augment_dummy_tail", augment)
    assert load_dag_records(path) == records


def test_import_dags_validates_each_record_once(tmp_path, monkeypatch):
    records = generate_dag_records(SMALL)
    path = tmp_path / "dags.json"
    path.write_text(json.dumps([dag_to_json(r.dag, r.dst_out) for r in records]))
    calls = []
    index = model._stream_index

    def spy(dag):
        calls.append(dag)
        return index(dag)

    monkeypatch.setattr(model, "_stream_index", spy)
    monkeypatch.setattr(bench, "_stream_index", spy, raising=False)  # a name imported here too
    assert load_dag_records(path) == records
    assert len(calls) == len(records)
    # and once more per record when the run augments it
    calls.clear()
    net = generate_network(SMALL)
    run_benchmark(list(ALGORITHMS), network=net, dag_records=load_dag_records(path))
    assert len(calls) == 2 * len(records)


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
    with pytest.raises(ValidationError, match=r"^record 1: "):
        load_dag_records(path)


def test_import_dags_rejects_missing_field(tmp_path):
    doc = {
        "functions": [{"id": 0, "flops": 1.0}, {"id": 1, "flops": 1.0}],
        "edges": [{"src": 0, "dst": 1}],  # bits missing
        "dst_out": {"1": 1.0},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps([doc]), encoding="utf-8")
    with pytest.raises(ValidationError, match=r"^record 0: malformed workload document"):
        load_dag_records(path)


def test_import_dags_rejects_non_array(tmp_path):
    path = tmp_path / "object.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_dag_records(path)


def test_import_dags_rejects_invalid_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_dag_records(path)


def test_import_dags_empty_array(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    assert load_dag_records(path) == []


# ---------------------------------------------------------------------------
# derived networks: the premises of the helpers criteria 5 and 6 run on
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
    records = generate_dag_records(SMALL)[:1]

    def fingerprint(network) -> str:
        return run_benchmark(["dpe"], network=network, dag_records=records).network_fingerprint

    fp = fingerprint(net)
    assert len(fp) == 12
    assert fp == fingerprint(net)
    assert fp != fingerprint(scale_network(net, psi_factor=2.0))


def test_nested_networks_grow_by_extension():
    spec = WorkloadSpec(seed=4, n_servers=6, connectivity=0.6, n_dags=1)
    nets = nested_networks(spec, [3, 5, 6])
    assert [n.n_servers for n in nets] == [3, 5, 6]
    assert nets[0] == generate_network(replace(spec, n_servers=3))
    for smaller, larger in zip(nets, nets[1:]):
        validate_network(larger)
        # the smaller network is a literal prefix of the larger one
        assert larger.servers[: smaller.n_servers] == smaller.servers
        assert larger.links[: len(smaller.links)] == smaller.links


# ---------------------------------------------------------------------------
# benchmark runs and reports
# ---------------------------------------------------------------------------

ALGOS = ["dpe", "heft", "placement-only"]


def bundle_for(spec: WorkloadSpec) -> ReportBundle:
    return run_benchmark(ALGOS, spec=spec)


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
    bundle = run_benchmark(["dpe"], network=net, dag_records=records)
    assert bundle.seed is None
    assert bundle.n_dags == len(records)
    assert bundle.network_fingerprint == run_benchmark(["dpe"], spec=SMALL).network_fingerprint


def test_run_benchmark_reads_the_dag_records_once():
    # any iterable of records: a generator gives the list's bundle, and an
    # empty iterator is the empty DAG set, not a mean over no makespans
    net = generate_network(SMALL)
    records = generate_dag_records(SMALL)
    listed = run_benchmark(ALGOS, network=net, dag_records=records)
    assert run_benchmark(ALGOS, network=net, dag_records=iter(records)) == listed
    assert run_benchmark(ALGOS, network=net, dag_records=(r for r in records)) == listed
    with pytest.raises(ValidationError, match="^the DAG set is empty$"):
        run_benchmark(ALGOS, network=net, dag_records=iter([]))


def test_run_benchmark_checks_an_explicit_network_before_the_catalog(monkeypatch):
    def no_catalog(net):
        raise AssertionError("build_catalog ran on an unchecked network")

    monkeypatch.setattr(bench, "build_catalog", no_catalog)
    islands = make_network(
        [Server(i, 1.0) for i in range(4)], [Link(0, 0, 1, 1.0), Link(1, 2, 3, 1.0)]
    )
    with pytest.raises(ValidationError) as expected:
        validate_network(islands)
    with pytest.raises(ValidationError) as raised:
        run_benchmark(["dpe"], network=islands, dag_records=generate_dag_records(SMALL))
    assert str(raised.value) == str(expected.value)


def test_run_benchmark_rejects_bad_requests():
    net = generate_network(SMALL)
    records = generate_dag_records(SMALL)
    with pytest.raises(ValueError):
        run_benchmark([], spec=SMALL)
    with pytest.raises(ValueError):
        run_benchmark(["nope"], spec=SMALL)
    with pytest.raises(ValueError):
        run_benchmark(["dpe", "dpe"], spec=SMALL)
    with pytest.raises(ValidationError):  # brute is an embed-only algorithm
        run_benchmark(["brute"], spec=SMALL)
    with pytest.raises(ValueError):
        run_benchmark(["dpe"], spec=SMALL, network=net, dag_records=records)
    with pytest.raises(ValueError):
        run_benchmark(["dpe"])


def test_every_runner_honours_a_ready_map():
    # every server busy for 100 s delays every entry, and with it the whole
    # embedding, by 100 s
    net = generate_network(SMALL)
    catalog = build_catalog(net)
    aug = generate_dag_records(SMALL)[0].augmented()
    busy = {server: 100.0 for server in range(net.n_servers)}
    entries = [f.id for f in aug.functions if not aug.stream_table[0][f.id]]
    for runner in ALGORITHMS.values():
        idle = runner(aug, net, catalog)
        result = runner(aug, net, catalog, busy)
        assert result.makespan == pytest.approx(idle.makespan + 100.0, rel=1e-9)
        assert all(result.finish_times[f] > 100.0 for f in entries)


def test_float_totals_never_go_through_builtin_sum(monkeypatch):
    # builtin sum compensates float error from Python 3.12 on, so a total
    # taken with it would give catalogs, splits, ranks and reports other
    # bits there than on 3.10 and 3.11
    builtin_sum = builtins.sum

    def no_float_sum(values, start=0):
        values = list(values)
        if any(isinstance(x, float) for x in (start, *values)):
            raise AssertionError(f"builtin sum over floats: {values[:3]}")
        return builtin_sum(values, start)

    monkeypatch.setattr(builtins, "sum", no_float_sum)
    net = generate_network(SMALL)
    catalog = build_catalog(net)
    ready = {0: 0.5, 2: 1.25}
    for record in generate_dag_records(SMALL):
        aug = record.augmented()
        validate_time_range(aug, net, ready)
        for runner in (*ALGORITHMS.values(), brute_force_embed):
            runner(aug, net, catalog, ready)
    optimal_split(SplitProblem((0.1, 0.2, 0.3), stream_size=7.0))
    run_benchmark(ALGOS, spec=SMALL)
    assert _sum_left([1e16, 1.0, -1e16]) == 0.0  # 1.0 by sum from 3.12 on


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
    assert trials[0] == "dag_id,algo,makespan_s,dag_size"
    assert len(trials) == 1 + len(bundle.trials)
    cdf = (tmp_path / "cdf_dpe.csv").read_text(encoding="utf-8").splitlines()
    assert cdf[0] == "makespan_s,fraction"
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert sorted(summary) == [
        "algorithms", "mean_makespan_s", "n_dags", "network_fingerprint", "reductions", "seed"
    ]
    assert summary["algorithms"] == ALGOS
    assert summary["n_dags"] == SMALL.n_dags
    assert summary["seed"] == SMALL.seed
    assert set(summary["mean_makespan_s"]) == set(ALGOS)


def test_reports_are_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    emit_report(bundle_for(SMALL), first)
    emit_report(bundle_for(SMALL), second)
    for name in ("summary.json", "trials.csv", "cdf_dpe.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
