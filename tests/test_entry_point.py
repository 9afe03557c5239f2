"""The ``edge-embed`` command line as a separate process: through
``python -m edge_embed.cli`` on this checkout's ``src``, and also through the
installed ``edge-embed`` script wherever the distribution is installed (as
after ``pip install -e .``), where a missing script fails every case."""

from __future__ import annotations

import importlib.metadata
import json
import os
import pathlib
import subprocess
import sys
import sysconfig

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
CAP = "EDGE_EMBED_PATH_CAP"
PREFIXES = {"module": [sys.executable, "-m", "edge_embed.cli"]}
if any(importlib.metadata.distributions(name="edge-embed")):
    PREFIXES["script"] = [os.path.join(sysconfig.get_path("scripts"), "edge-embed")]

# the inputs every case reads, written by the prefix's own gen
GEN = ["gen --seed 0 --out gen", "gen --seed 0 --out gen-again",
       "gen --seed 0 --servers 9 --connectivity 1.0 --dags 1 --out k9"]
PATHS = "paths --network gen/net.json --src 0 --dst 1"
CASES = [  # command, environment added, exit code
    pytest.param(PATHS, {}, 0, id="paths"),
    pytest.param("split --coeffs 1e-7,2e-7 --size 1e6 --verify", {}, 0, id="split-verify"),
    pytest.param("embed --network gen/net.json --dag dag0.json", {}, 0, id="embed"),
    # a network nested 100,000 arrays deep is no valid JSON
    pytest.param("embed --network nested.json --dag dag0.json", {}, 2, id="nested-json"),
    # a cap past the 4,300 digits int() reads, and one past a lowered limit
    pytest.param(PATHS, {CAP: "9" * 5000}, 2, id="cap-5000-digits"),
    pytest.param(PATHS, {"PYTHONINTMAXSTRDIGITS": "640", CAP: "9" * 700}, 2, id="cap-640-limit"),
    pytest.param("bench --n-dags 5 --out bench", {}, 0, id="bench-spec"),
    pytest.param("bench --network gen/net.json --dags gen/dags.json --out bench-files", {}, 0,
                 id="bench-files"),
]


def start(cli, command, env={}, stdout=subprocess.PIPE):
    """Start ``command`` in the prefix's directory, with no path cap unless ``env`` sets one."""
    prefix, work = cli
    base = {k: v for k, v in os.environ.items() if k != CAP}
    return subprocess.Popen(prefix + command.split(), cwd=work, stdout=stdout,
                            stderr=subprocess.PIPE, env={**base, "PYTHONPATH": SRC, **env})


def finish(proc, code):
    """Exit ``code``, with one ``error: `` stderr line for a failure, none for a success."""
    lines = proc.communicate(timeout=120)[1].decode().splitlines()
    assert proc.returncode == code, lines
    assert len(lines) == (code != 0) and all(line.startswith("error: ") for line in lines), lines
    return lines


@pytest.fixture(scope="module", params=list(PREFIXES))
def cli(request, tmp_path_factory):
    cli = PREFIXES[request.param], tmp_path_factory.mktemp(request.param)
    for proc in [start(cli, command) for command in GEN]:
        finish(proc, 0)
    work = cli[1]
    dag0 = json.loads((work / "gen" / "dags.json").read_text(encoding="utf-8"))[0]
    (work / "dag0.json").write_text(json.dumps(dag0), encoding="utf-8")
    (work / "nested.json").write_text("[" * 100000, encoding="utf-8")
    return cli


def test_gen_writes_the_same_bytes_twice(cli):
    # README promises byte-identical files for identical arguments
    for name in ("net.json", "dags.json"):
        assert (cli[1] / "gen" / name).read_bytes() == (cli[1] / "gen-again" / name).read_bytes()


@pytest.mark.parametrize("command, env, code", CASES)
def test_command_exit_code_and_error_line(cli, command, env, code):
    finish(start(cli, command, env), code)


def test_paths_into_a_closed_pipe_ends_in_one_error_line(cli):
    # K_9 lists 13,701 paths from 0 to 1, far more than a pipe buffers, so
    # the command is still writing when its reader leaves after one line
    proc = start(cli, "paths --network k9/net.json --src 0 --dst 1")
    assert proc.stdout.readline() == b"0-1 coeff=2.47853e-08\n"
    proc.stdout.close()
    assert finish(proc, 1) == ["error: output could not be written: [Errno 32] Broken pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_output_to_a_full_device_ends_in_one_error_line(cli):
    with open("/dev/full", "wb") as full:
        lines = finish(start(cli, PATHS, stdout=full), 1)
    assert lines == ["error: output could not be written: [Errno 28] No space left on device"]
