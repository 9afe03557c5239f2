"""Property test: mutated network, DAG and ready documents never crash the CLI.

Each example starts from valid documents, applies one or two mutations
(a dropped key or element, or a value swapped for a wrong type, a
non-finite or negative number, or an out-of-range id) and runs ``embed``
in process. Whatever the input, the CLI must exit 0, 2 or 3, print exactly
one ``error:`` line when it fails, and let no exception escape.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from edge_embed.cli import main
from edge_embed.model import network_to_json

from conftest import triangle_network
from test_cli import DIAMOND

READY = {"0": 0.5, "1": 0.0, "2": 1.25}

BAD_VALUES = [
    None, True, "x", "", [], {}, [1], {"0": 1},
    math.nan, math.inf, -math.inf, -1, -1.5, 0, 0.0, 1e-300, 1e-310, 1e308,
    3, 99, -99, 10**400, 2**63,
]


def _locations(doc, prefix=()):
    """Every (container path, key) pair inside ``doc``, depth first."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    found = []
    for key, value in items:
        found.append((prefix, key))
        found.extend(_locations(value, prefix + (key,)))
    return found


def _container(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """``doc`` (copied) with one or two keys dropped or values replaced."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        locations = _locations(doc)
        if not locations:
            return copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
        path, key = draw(st.sampled_from(locations))
        parent = _container(doc, path)
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    return doc


@st.composite
def cli_inputs(draw):
    valid = {
        "network": network_to_json(triangle_network()),
        "dag": DIAMOND,
        "ready": READY,
    }
    target = draw(st.sampled_from(sorted(valid)))
    valid[target] = draw(mutated(valid[target]))
    algo = draw(st.sampled_from(["dpe", "brute", "placement-only", "heft"]))
    with_ready = target == "ready" or draw(st.booleans())
    return valid, algo, with_ready


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cli_inputs())
def test_mutated_documents_exit_cleanly(inputs):
    docs, algo, with_ready = inputs
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        argv = ["embed", "--network", str(paths["network"]),
                "--dag", str(paths["dag"]), "--algo", algo]
        if with_ready:
            argv += ["--ready", str(paths["ready"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        assert math.isfinite(json.loads(out.getvalue())["makespan"])
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert out.getvalue() == ""
