"""End-to-end CLI tests driving ``edge_embed.cli.main`` in process."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import edge_embed
from edge_embed import (
    augment_dummy_tail,
    brute_force_embed,
    build_catalog,
    dpe_embed,
    embedding_to_json,
    heft_schedule,
    passive_routes,
    placement_only_embed,
)
from edge_embed.cli import main
from edge_embed.model import dag_from_json, network_to_json

from conftest import complete_network, core_and_leaf_network, triangle_network

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


def assert_one_error(capsys, code, want=2):
    """Exit ``want`` with exactly one ``error:`` line and no traceback."""
    assert code == want
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


def test_paths_cap_bounds_the_listing_work(tmp_path, capsys, monkeypatch):
    # one path joins server 0 and the leaf 9, but the listing also expands
    # the paths of the K_9 core that leave 0, and the cap counts them too
    path = tmp_path / "leaf.json"
    path.write_text(json.dumps(network_to_json(core_and_leaf_network(9))), encoding="utf-8")
    monkeypatch.setenv("EDGE_EMBED_PATH_CAP", "1000")
    code = main(["paths", "--network", str(path), "--src", "0", "--dst", "9"])
    assert_one_error(capsys, code, want=3)


def test_paths_into_a_closed_pipe_ends_in_one_error_line(tmp_path, capsys):
    # K_9 lists 13,701 paths from 0 to 1, far more than a pipe buffers, so
    # the command is still writing when its reader leaves after one line
    assert main(["gen", "--seed", "0", "--servers", "9", "--connectivity", "1.0",
                 "--dags", "1", "--out", str(tmp_path / "k9")]) == 0
    env = {k: v for k, v in os.environ.items() if k != "EDGE_EMBED_PATH_CAP"}
    env["PYTHONPATH"] = str(pathlib.Path(edge_embed.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "edge_embed.cli", "paths", "--network",
         str(tmp_path / "k9" / "net.json"), "--src", "0", "--dst", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"0-1 coeff=2.47853e-08\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err.splitlines() == ["error: output closed early: [Errno 32] Broken pipe"]


@pytest.mark.parametrize("value", ["abc", "-5", "1.5", "", "\u0663", "\uff11\uff10"])
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


@pytest.mark.parametrize(
    "ends",
    [
        ("0", "9"), ("9", "0"), ("-1", "1"),
        # int() alone reads "0_0" as 0 and non-ASCII digits as digits
        ("abc", "1"), ("0", "1.0"), ("0_0", "1"), ("0", "\u0661"), ("\uff10", "1"), ("0", ""),
    ],
)
def test_paths_rejects_unknown_server(tmp_path, capsys, ends):
    net = write_triangle(tmp_path)
    code = main(["paths", "--network", net, "--src", ends[0], "--dst", ends[1]])
    assert_one_error(capsys, code)


@pytest.mark.parametrize(
    "argv",
    [
        ["paths", "--network", "net.json"],  # a missing required option
        ["paths", "--network", "net.json", "--src", "0", "--dst", "1", "--bogus"],
        ["embed", "--network", "net.json", "--dag", "dag.json", "--algo", "nope"],
        ["bench", "--out", "report", "--timing", "cpu"],
        # reports hold no wall time, so bench has no timing option
        ["bench", "--out", "report", "--timing", "wall"],
        ["bench", "--out", "report", "--timing", "off"],
        ["nope"],
        [],
    ],
    ids=["missing-option", "unknown-option", "bad-choice", "bad-timing", "timing-wall",
         "timing-off", "bad-command", "no-command"],
)
def test_argparse_errors_print_one_error_line(capsys, argv):
    # argparse alone prints its usage line first and exits through SystemExit
    assert_one_error(capsys, main(argv))


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


@pytest.mark.parametrize(
    "coeffs, size",
    [("1_0,2", "6"), ("\uff11,2", "6"), ("0.5", "\u0666"), ("0.5", "6_0"), ("0.5", "abc"),
     ("0.5,", "6"), ("0.5", "")],
    ids=["underscore", "fullwidth-digit", "arabic-indic-size", "underscore-size",
         "text-size", "empty-coefficient", "empty-size"],
)
def test_split_reads_only_ascii_numbers_without_underscores(capsys, coeffs, size):
    # float() alone reads "1_0" as 10 and non-ASCII digits as digits
    assert_one_error(capsys, main(["split", "--coeffs", coeffs, "--size", size]))


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


@pytest.mark.parametrize("algo", ["dpe", "heft", "placement-only"])
def test_embed_long_chain(tmp_path, capsys, algo):
    # validation walks the DAG without recursing once per function
    n = 2000
    chain = {
        "functions": [{"id": i, "flops": 1.0e9} for i in range(n)],
        "edges": [{"src": i, "dst": i + 1, "bits": 1.0e6} for i in range(n - 1)],
        "dst_out": {str(n - 1): 1.0e6},
    }
    net = write_triangle(tmp_path)
    dag = write_diamond(tmp_path, chain)
    assert main(["embed", "--network", net, "--dag", dag, "--algo", algo]) == 0
    assert len(json.loads(capsys.readouterr().out)["placements"]) == n + 1


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


@pytest.mark.parametrize(
    "algo, ready",
    [
        ("dpe", None),
        ("heft", None),
        ("placement-only", None),
        ("brute", None),
        ("dpe", {0: 0.5, 2: 3.0}),
        ("heft", {0: 0.5, 2: 3.0}),
        ("placement-only", {0: 0.5, 2: 3.0}),
        ("brute", {0: 0.5, 2: 3.0}),
    ],
    ids=[
        "dpe", "heft", "placement-only", "brute",
        "dpe-ready", "heft-ready", "placement-only-ready", "brute-ready",
    ],
)
def test_embed_prints_the_library_embedding(tmp_path, capsys, algo, ready):
    library = {
        "dpe": lambda aug, net, cat: dpe_embed(aug, net, cat, ready),
        "heft": lambda aug, net, cat: heft_schedule(aug, net, passive_routes(cat), ready),
        "placement-only": lambda aug, net, cat: placement_only_embed(
            aug, net, cat, ready=ready
        ),
        "brute": lambda aug, net, cat: brute_force_embed(aug, net, cat, ready),
    }[algo]
    net = triangle_network()
    aug = augment_dummy_tail(*dag_from_json(DIAMOND))
    want = json.dumps(
        embedding_to_json(library(aug, net, build_catalog(net))),
        sort_keys=True,
        indent=2,
    )
    argv = ["embed", "--network", write_triangle(tmp_path)]
    argv += ["--dag", write_diamond(tmp_path), "--algo", algo]
    if ready is not None:
        path = tmp_path / "ready.json"
        path.write_text(json.dumps({str(s): t for s, t in ready.items()}), encoding="utf-8")
        argv += ["--ready", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == want + "\n"


@pytest.mark.parametrize("algo", ["dpe", "heft", "placement-only", "brute"])
def test_embed_reads_functions_listed_out_of_id_order(tmp_path, capsys, algo):
    # DIAMOND with function f renamed 3 - f, listed (and so stored) in the
    # same order: ids descend, and the embedding is DIAMOND's, renamed
    reversed_ids = {
        "functions": [{"id": 3 - f["id"], "flops": f["flops"]} for f in DIAMOND["functions"]],
        "edges": [
            {"src": 3 - e["src"], "dst": 3 - e["dst"], "bits": e["bits"]}
            for e in DIAMOND["edges"]
        ],
        "dst_out": {"0": 1.0},
    }
    net = write_triangle(tmp_path)
    docs = []
    for doc in (DIAMOND, reversed_ids):
        dag = write_diamond(tmp_path, doc)
        assert main(["embed", "--network", net, "--dag", dag, "--algo", algo]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    want, got = docs
    name = {"0": "3", "1": "2", "2": "1", "3": "0", "4": "4"}  # 4: the collector
    assert got["placements"] == {name[f]: s for f, s in want["placements"].items()}
    assert got["finish_times"] == {name[f]: t for f, t in want["finish_times"].items()}
    assert got["makespan"] == want["makespan"]
    renamed = [
        {**e, "src": int(name[str(e["src"])]), "dst": int(name[str(e["dst"])])}
        for e in want["edges"]
    ]
    assert got["edges"] == sorted(renamed, key=lambda e: (e["src"], e["dst"]))


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
    "argv",
    [
        ["embed", "--network", "NESTED", "--dag", "DAG"],
        ["embed", "--network", "NET", "--dag", "NESTED"],
        ["embed", "--network", "NET", "--dag", "DAG", "--ready", "NESTED"],
        ["bench", "--network", "NESTED", "--dags", "DAGS", "--out", "OUT"],
        ["bench", "--network", "NET", "--dags", "NESTED", "--out", "OUT"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[argv.index('NESTED') - 1][2:]}",
)
def test_deeply_nested_json_ends_in_one_error_line(tmp_path, capsys, argv):
    # the parser gave up in a RecursionError traceback with exit 1
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000, encoding="utf-8")
    dags = tmp_path / "dags.json"
    dags.write_text(json.dumps([DIAMOND]), encoding="utf-8")
    files = {"NESTED": nested, "NET": write_triangle(tmp_path), "DAG": write_diamond(tmp_path)}
    files.update(DAGS=dags, OUT=tmp_path / "out")
    assert main([str(files.get(arg, arg)) for arg in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {nested} is not valid JSON")


@pytest.mark.parametrize(
    "ready",
    [
        {"zero": 1.0}, {"0": "soon"}, {"0": [1.0]}, {"9": 1.0}, [1.0], {"0": -1.0},
        {"0": True}, {"0": "1.5"},
    ],
)
def test_embed_rejects_malformed_ready_map(tmp_path, capsys, ready):
    net = write_triangle(tmp_path)
    dag = write_diamond(tmp_path)
    path = tmp_path / "ready.json"
    path.write_text(json.dumps(ready), encoding="utf-8")
    code = main(["embed", "--network", net, "--dag", dag, "--ready", str(path)])
    assert_one_error(capsys, code)


def _spell_ready_key(dag, ready, spell):
    ready[spell(1)] = 2.5


def _spell_dst_out_key(dag, ready, spell):
    dag["dst_out"] = {spell(3): dag["dst_out"]["3"]}


@pytest.mark.parametrize(
    "spell",
    [
        "0_{}".format, " +{} ".format, "+{}".format, "0{}".format, "{}.0".format,
        "{}\n".format, lambda d: chr(0x660 + d),  # an ARABIC-INDIC DIGIT
    ],
    ids=["underscore", "padded-sign", "sign", "leading-zero", "decimal", "newline",
         "arabic-indic"],
)
@pytest.mark.parametrize("respell", [_spell_ready_key, _spell_dst_out_key])
def test_embed_rejects_a_key_int_would_coerce(tmp_path, capsys, respell, spell):
    # int() reads each spelling as the id; a key must be the id's own digits
    net = write_triangle(tmp_path)
    dag_doc = json.loads(json.dumps(DIAMOND))
    ready_doc = {"0": 0.0}
    respell(dag_doc, ready_doc, spell)
    dag = write_diamond(tmp_path, dag_doc)
    ready = tmp_path / "ready.json"
    ready.write_text(json.dumps(ready_doc), encoding="utf-8")
    code = main(["embed", "--network", net, "--dag", dag, "--ready", str(ready)])
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


def _set_second_server_id(net, dag, ready, value):
    net["servers"][1]["id"] = value


def _set_link_u(net, dag, ready, value):
    net["links"][0]["u"] = value


def _set_link_v(net, dag, ready, value):
    net["links"][0]["v"] = value


def _set_dst(net, dag, ready, value):
    dag["edges"][0]["dst"] = value


@pytest.mark.parametrize(
    "mutate, value",
    [
        (_set_second_server_id, True),  # int(True) would read it as id 1
        (_set_link_u, "0"),
        (_set_link_v, 1.7),  # int(1.7) would read it as server 1
        (_set_psi, "2e10"),
        (_set_psi, True),
        (_set_flops, True),
        (_set_dst, 1.5),
        (_set_bits, "8e6"),
        (_set_dst_out, "1.0"),
    ],
)
def test_embed_rejects_coerced_values(tmp_path, capsys, mutate, value):
    # ids must be JSON integers and quantities JSON numbers, never bools
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
    if ready_doc is not None:
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


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--seed", "1_0", "--servers", "3", "--dags", "2"],
        ["gen", "--seed", "1", "--servers", "\u0663", "--dags", "2"],
        ["gen", "--seed", "1", "--servers", "3", "--dags", "\uff12"],
        ["gen", "--seed", "1", "--servers", "3", "--connectivity", "0.5_0"],
        ["gen", "--seed", "1", "--servers", "3", "--connectivity", "\uff11"],
        ["gen", "--seed", "2.0", "--servers", "3"],
        ["bench", "--seed", "\u0667", "--servers", "3", "--n-dags", "2"],
        ["bench", "--servers", "3", "--n-dags", "1_0"],
        ["bench", "--servers", "3", "--n-dags", "2", "--connectivity", "0.2_5"],
    ],
    ids=["seed-underscore", "servers-arabic-indic", "dags-fullwidth",
         "connectivity-underscore", "connectivity-fullwidth", "seed-float",
         "bench-seed-arabic-indic", "n-dags-underscore", "bench-connectivity-underscore"],
)
def test_number_options_read_only_ascii_without_underscores(tmp_path, capsys, argv):
    # int() and float() alone read "1_0" as 10 and non-ASCII digits as digits
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert_one_error(capsys, code)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

BENCH_SPEC = ["bench", "--seed", "7", "--servers", "3", "--connectivity", "0.8",
              "--n-dags", "4"]


@pytest.mark.parametrize("command", ["gen", "bench"])
def test_negative_seed_is_rejected(tmp_path, capsys, command):
    code = main([command, "--seed", "-1", "--servers", "3",
                 "--out", str(tmp_path / "out")])
    assert_one_error(capsys, code)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["gen", "--seed", "1", "--servers", "100000", "--dags", "1"], None),
        (["bench", "--servers", "1001", "--n-dags", "1"], None),
        (["gen", "--seed", "1", "--servers", "3", "--dags", "1"], "5"),
    ],
)
def test_server_count_past_path_cap_fails_before_drawing(
    tmp_path, capsys, monkeypatch, argv, cap
):
    # c servers give at least c(c-1) simple paths, one per ordered pair
    if cap is None:
        monkeypatch.delenv("EDGE_EMBED_PATH_CAP", raising=False)
    else:
        monkeypatch.setenv("EDGE_EMBED_PATH_CAP", cap)
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert_one_error(capsys, code, want=3)
    assert not (tmp_path / "out").exists()


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


def test_bench_names_the_record_a_run_rejects(tmp_path, capsys):
    # both records load, but record 1's finish times overflow on this network
    net = tmp_path / "net.json"
    net.write_text(json.dumps(_two_servers(0.5)), encoding="utf-8")
    dags = tmp_path / "dags.json"
    dags.write_text(json.dumps([_pair_dag(1.0e9, 1.0e9), _pair_dag(1e308, 1.0e9)]),
                    encoding="utf-8")
    code = main(["bench", "--network", str(net), "--dags", str(dags),
                 "--out", str(tmp_path / "report")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: record 1: finish times overflow: the workload's flops and bits are "
        "too large for this network's speeds and throughputs"
    ]
    assert captured.out == "" and not (tmp_path / "report").exists()


def test_bench_rejects_empty_dag_set(tmp_path, capsys):
    dags = tmp_path / "dags.json"
    dags.write_text("[]", encoding="utf-8")
    code = main(["bench", "--network", write_triangle(tmp_path),
                 "--dags", str(dags), "--out", str(tmp_path / "report")])
    assert_one_error(capsys, code)


@pytest.mark.parametrize(
    "argv, out",
    [
        # the output directory is an existing file
        (["gen", "--seed", "1", "--servers", "3", "--dags", "2"], "taken"),
        # the output directory lies under an existing file
        (BENCH_SPEC, "taken/report"),
    ],
)
def test_unwritable_out_is_rejected(tmp_path, capsys, argv, out):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    code = main(argv + ["--out", str(tmp_path / out)])
    assert_one_error(capsys, code)


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
