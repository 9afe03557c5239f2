"""End-to-end CLI tests driving ``edge_embed.cli.main`` in process."""

from __future__ import annotations

import json

import pytest

from edge_embed.cli import main
from edge_embed.model import network_to_json

from conftest import complete_network, triangle_network

DIAMOND = {
    "functions": [
        {"id": 0, "flops": 1.0},
        {"id": 1, "flops": 2.0},
        {"id": 2, "flops": 3.0},
        {"id": 3, "flops": 1.0},
    ],
    "edges": [
        {"src": 0, "dst": 1, "bits": 1.0},
        {"src": 0, "dst": 2, "bits": 2.0},
        {"src": 1, "dst": 3, "bits": 1.0},
        {"src": 2, "dst": 3, "bits": 1.0},
    ],
    "dst_out": {"3": 1.0},
}


def write_triangle(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_json(triangle_network())), encoding="utf-8")
    return str(path)


def write_diamond(tmp_path, doc=DIAMOND):
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def assert_one_error(capsys, code):
    """Exit 2 with exactly one ``error:`` line and no traceback."""
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_paths_lists_routes_and_coefficients(tmp_path, capsys):
    net = write_triangle(tmp_path)
    assert main(["paths", "--network", net, "--src", "0", "--dst", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0-1 coeff=1"
    assert out[1] == "0-2-1 coeff=0.75"
    assert out[2] == "2 simple paths from 0 to 1"


def test_paths_honors_cap_from_environment(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k5.json"
    path.write_text(
        json.dumps(network_to_json(complete_network(5))), encoding="utf-8"
    )
    monkeypatch.setenv("EDGE_EMBED_PATH_CAP", "10")
    code = main(["paths", "--network", str(path), "--src", "0", "--dst", "1"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-5", "1.5", ""])
def test_paths_rejects_malformed_cap_from_environment(
    tmp_path, capsys, monkeypatch, value
):
    monkeypatch.setenv("EDGE_EMBED_PATH_CAP", value)
    net = write_triangle(tmp_path)
    code = main(["paths", "--network", net, "--src", "0", "--dst", "1"])
    assert_one_error(capsys, code)


def test_paths_missing_network_file(tmp_path, capsys):
    code = main(
        ["paths", "--network", str(tmp_path / "none.json"), "--src", "0", "--dst", "1"]
    )
    assert code == 2


@pytest.mark.parametrize("ends", [("0", "9"), ("9", "0"), ("-1", "1")])
def test_paths_rejects_unknown_server(tmp_path, capsys, ends):
    net = write_triangle(tmp_path)
    code = main(["paths", "--network", net, "--src", ends[0], "--dst", ends[1]])
    assert_one_error(capsys, code)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_prints_solution(capsys):
    assert main(["split", "--coeffs", "0.5,0.25", "--size", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bottleneck_time_s"] == 1.0
    assert payload["allocations_bits"] == [2.0, 4.0]


def test_split_verify_reports_tiny_oracle_gap(capsys):
    assert main(["split", "--coeffs", "0.5,0.25,0.125", "--size", "7", "--verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_gap_rel"] <= 1e-9


def test_split_rejects_garbage_coefficients(capsys):
    assert main(["split", "--coeffs", "a,b", "--size", "6"]) == 2
    assert main(["split", "--coeffs", "0.5,-1", "--size", "6"]) == 2
    assert main(["split", "--coeffs", "0.5", "--size", "0"]) == 2
    assert main(["split", "--coeffs", "0.5,nan", "--size", "6"]) == 2
    assert main(["split", "--coeffs", "0.5", "--size", "inf"]) == 2


@pytest.mark.parametrize("verify", [[], ["--verify"]])
@pytest.mark.parametrize(
    "coeffs, size",
    [("1e-320,1", "1"), ("1e-300", "1e-300"), ("1e300,1e300", "1e300")],
)
def test_split_rejects_overflowing_closed_form(capsys, coeffs, size, verify):
    # tau or an allocation underflows to 0 or overflows to inf
    code = main(["split", "--coeffs", coeffs, "--size", size, *verify])
    assert_one_error(capsys, code)


def test_split_verify_rejects_overflowing_oracle(capsys):
    # tau is about 1.5e308, but the oracle starts its search from 3 * 1e308
    argv = ["split", "--coeffs", "1e308,1e308", "--size", "3"]
    assert main(argv) == 0
    tau = json.loads(capsys.readouterr().out)["bottleneck_time_s"]
    assert tau == pytest.approx(1.5e308)
    assert_one_error(capsys, main(argv + ["--verify"]))


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def test_embed_all_algorithms(tmp_path, capsys):
    net = write_triangle(tmp_path)
    dag = write_diamond(tmp_path)
    spans = {}
    for algo in ("dpe", "brute", "placement-only", "heft"):
        assert main(["embed", "--network", net, "--dag", dag, "--algo", algo]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["makespan"] > 0
        assert set(doc) == {"placements", "edges", "finish_times", "makespan"}
        spans[algo] = doc["makespan"]
    # no algorithm can undercut the exhaustive optimum
    assert spans["dpe"] >= spans["brute"] - 1e-12
    assert spans["placement-only"] >= spans["brute"] - 1e-12
    assert spans["heft"] >= spans["brute"] - 1e-12


def test_embed_accepts_ready_map_for_dpe(tmp_path, capsys):
    net = write_triangle(tmp_path)
    dag = write_diamond(tmp_path)
    ready = tmp_path / "ready.json"
    ready.write_text(json.dumps({"0": 0.0, "1": 5.0, "2": 5.0}), encoding="utf-8")
    assert main(
        ["embed", "--network", net, "--dag", dag, "--ready", str(ready)]
    ) == 0
    delayed = json.loads(capsys.readouterr().out)
    assert main(["embed", "--network", net, "--dag", dag]) == 0
    fresh = json.loads(capsys.readouterr().out)
    assert delayed["makespan"] >= fresh["makespan"]


def test_embed_rejects_ready_map_for_list_scheduler(tmp_path, capsys):
    net = write_triangle(tmp_path)
    dag = write_diamond(tmp_path)
    ready = tmp_path / "ready.json"
    ready.write_text(json.dumps({"0": 1.0}), encoding="utf-8")
    code = main(
        ["embed", "--network", net, "--dag", dag, "--algo", "heft", "--ready", str(ready)]
    )
    assert code == 2


def test_embed_rejects_malformed_dag(tmp_path, capsys):
    net = write_triangle(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"functions": []}), encoding="utf-8")
    assert main(["embed", "--network", net, "--dag", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_embed_rejects_unreadable_dag(tmp_path, capsys, kind):
    net = write_triangle(tmp_path)
    dag = tmp_path / "dags"
    if kind == "directory":
        dag.mkdir()
    else:
        dag.write_bytes(b'{"functions": "\xff"}')
    code = main(["embed", "--network", net, "--dag", str(dag)])
    assert_one_error(capsys, code)


@pytest.mark.parametrize(
    "ready", [{"zero": 1.0}, {"0": "soon"}, {"0": [1.0]}, {"9": 1.0}, [1.0]]
)
def test_embed_rejects_malformed_ready_map(tmp_path, capsys, ready):
    net = write_triangle(tmp_path)
    dag = write_diamond(tmp_path)
    path = tmp_path / "ready.json"
    path.write_text(json.dumps(ready), encoding="utf-8")
    code = main(["embed", "--network", net, "--dag", dag, "--ready", str(path)])
    assert_one_error(capsys, code)


def _set_psi(net, dag, ready, value):
    net["servers"][0]["psi"] = value


def _set_throughput(net, dag, ready, value):
    net["links"][0]["b"] = value


def _set_flops(net, dag, ready, value):
    dag["functions"][1]["flops"] = value


def _set_bits(net, dag, ready, value):
    dag["edges"][0]["bits"] = value


def _set_dst_out(net, dag, ready, value):
    dag["dst_out"]["3"] = value


def _set_ready(net, dag, ready, value):
    ready["1"] = value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "mutate",
    [_set_psi, _set_throughput, _set_flops, _set_bits, _set_dst_out, _set_ready],
)
def test_embed_rejects_non_finite_numbers(tmp_path, capsys, mutate, value):
    assert_one_error(capsys, _embed_mutated(tmp_path, mutate, value))


def _embed_mutated(tmp_path, mutate, value):
    """Run ``embed --ready`` on the diamond after ``mutate`` sets ``value``."""
    net_doc = network_to_json(triangle_network())
    dag_doc = json.loads(json.dumps(DIAMOND))
    ready_doc = {"0": 0.0}
    mutate(net_doc, dag_doc, ready_doc, value)
    net = tmp_path / "net.json"
    net.write_text(json.dumps(net_doc), encoding="utf-8")
    ready = tmp_path / "ready.json"
    ready.write_text(json.dumps(ready_doc), encoding="utf-8")
    dag = write_diamond(tmp_path, dag_doc)
    return main(
        ["embed", "--network", str(net), "--dag", dag, "--ready", str(ready)]
    )


def _set_server_id(net, dag, ready, value):
    net["servers"][0]["id"] = value


def _set_function_id(net, dag, ready, value):
    dag["functions"][0]["id"] = value


@pytest.mark.parametrize(
    "mutate, value",
    [
        (_set_server_id, float("inf")),  # int(inf) overflows
        (_set_function_id, float("-inf")),
        (_set_psi, 10**400),  # float(10**400) overflows
        (_set_ready, 10**400),
    ],
)
def test_embed_rejects_overflowing_numbers(tmp_path, capsys, mutate, value):
    assert_one_error(capsys, _embed_mutated(tmp_path, mutate, value))


def _two_servers(psi):
    return {
        "servers": [{"id": 0, "psi": psi}, {"id": 1, "psi": psi}],
        "links": [{"id": 0, "u": 0, "v": 1, "b": 1.0e7}],
    }


def _pair_dag(flops0, flops1, bits=1.0e6):
    return {
        "functions": [{"id": 0, "flops": flops0}, {"id": 1, "flops": flops1}],
        "edges": [{"src": 0, "dst": 1, "bits": bits}],
        "dst_out": {"1": bits},
    }


# a triangle whose link (0, 1) is so slow that 1 / throughput overflows
SLOW_LINK_TRIANGLE = {
    "servers": [{"id": 0, "psi": 1.0e10}, {"id": 1, "psi": 2.0e10},
                {"id": 2, "psi": 4.0e10}],
    "links": [{"id": 0, "u": 0, "v": 1, "b": 1e-310},
              {"id": 1, "u": 1, "v": 2, "b": 2.0e7},
              {"id": 2, "u": 0, "v": 2, "b": 4.0e7}],
}

OVERFLOWING_TIMES = {
    "slow-servers": (_two_servers(1e-300), _pair_dag(1.0e9, 1.0e12), None),
    "huge-flops": (_two_servers(0.5), _pair_dag(1e308, 1.0e9), None),
    "slow-link": (SLOW_LINK_TRIANGLE, _pair_dag(1.0e9, 1.0e12),
                  {"1": 100, "2": 100}),
    "fast-servers": (_two_servers(1e300), _pair_dag(1e-300, 1e-300, 1e-300), None),
}


def _embed_docs(tmp_path, net_doc, dag_doc, ready_doc, algo):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(net_doc), encoding="utf-8")
    argv = ["embed", "--network", str(net),
            "--dag", write_diamond(tmp_path, dag_doc), "--algo", algo]
    if ready_doc is not None and algo in ("dpe", "brute"):
        ready = tmp_path / "ready.json"
        ready.write_text(json.dumps(ready_doc), encoding="utf-8")
        argv += ["--ready", str(ready)]
    return main(argv)


@pytest.mark.parametrize("algo", ["dpe", "brute", "placement-only", "heft"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_TIMES))
def test_embed_rejects_overflowing_times(tmp_path, capsys, case, algo):
    # finite inputs whose processing or transit times leave the float range
    code = _embed_docs(tmp_path, *OVERFLOWING_TIMES[case], algo)
    assert_one_error(capsys, code)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_writes_deterministic_workload(tmp_path, capsys):
    args = ["gen", "--seed", "5", "--servers", "3", "--connectivity", "0.9",
            "--dags", "4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("net.json", "dags.json"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second


def test_gen_rejects_bad_spec(tmp_path, capsys):
    code = main(
        ["gen", "--seed", "1", "--connectivity", "0", "--out", str(tmp_path)]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

BENCH_SPEC = ["bench", "--seed", "7", "--servers", "3", "--connectivity", "0.8",
              "--n-dags", "4"]


def test_bench_from_spec_writes_reports(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(BENCH_SPEC + ["--out", str(out)]) == 0
    for name in ("summary.json", "trials.csv", "cdf_dpe.csv", "cdf_heft.csv",
                 "cdf_placement-only.csv"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_dags"] == 4


def test_bench_from_files_matches_spec_mode(tmp_path, capsys):
    gen_args = ["gen", "--seed", "7", "--servers", "3", "--connectivity", "0.8",
                "--dags", "4", "--out", str(tmp_path / "wl")]
    assert main(gen_args) == 0
    out_files = tmp_path / "from_files"
    assert main(
        [
            "bench",
            "--network", str(tmp_path / "wl" / "net.json"),
            "--dags", str(tmp_path / "wl" / "dags.json"),
            "--out", str(out_files),
        ]
    ) == 0
    out_spec = tmp_path / "from_spec"
    assert main(BENCH_SPEC + ["--out", str(out_spec)]) == 0
    # identical workloads, identical makespans; only the seed field differs
    spec_trials = (out_spec / "trials.csv").read_bytes()
    file_trials = (out_files / "trials.csv").read_bytes()
    assert spec_trials == file_trials


def test_bench_default_runs_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "one"
    second = tmp_path / "two"
    assert main(BENCH_SPEC + ["--out", str(first)]) == 0
    assert main(BENCH_SPEC + ["--out", str(second)]) == 0
    for name in ("trials.csv", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_bench_rejects_unknown_algorithm(tmp_path, capsys):
    code = main(BENCH_SPEC + ["--algos", "nope", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize(
    "net_doc, dags_doc",
    [
        # each DAG's times fit, but the mean makespan overflows
        (_two_servers(1.0), [_pair_dag(5e307, 5e307, 1.0)] * 2),
        # every makespan underflows to 0
        (_two_servers(1e300), [_pair_dag(1e-300, 1e-300, 1e-300)]),
    ],
)
def test_bench_rejects_times_out_of_range(tmp_path, capsys, net_doc, dags_doc):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(net_doc), encoding="utf-8")
    dags = tmp_path / "dags.json"
    dags.write_text(json.dumps(dags_doc), encoding="utf-8")
    code = main(["bench", "--network", str(net), "--dags", str(dags),
                 "--out", str(tmp_path / "report")])
    assert_one_error(capsys, code)
    assert not (tmp_path / "report").exists()


def test_bench_requires_both_workload_files(tmp_path, capsys):
    code = main(
        ["bench", "--network", "net.json", "--out", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize("value,want", [("1", 3), ("abc", 2)])
def test_embed_and_bench_honor_cap_from_environment(
    tmp_path, capsys, monkeypatch, value, want
):
    # both commands leave the cap to the catalog, which reads the variable
    monkeypatch.setenv("EDGE_EMBED_PATH_CAP", value)
    commands = [
        ["embed", "--network", write_triangle(tmp_path),
         "--dag", write_diamond(tmp_path)],
        BENCH_SPEC + ["--out", str(tmp_path / "report")],
    ]
    for argv in commands:
        assert main(argv) == want
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert captured.out == ""
