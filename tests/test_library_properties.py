"""Property test: mutated values at every library entry point that takes
user values raise only ``EdgeEmbedError``.

Each example picks one entry point and calls it with values drawn around
valid ones: a ``WorkloadSpec`` with one or two fields swapped, a ready map
with bad keys, times or shape, ``scale_network`` factors,
``nested_networks`` counts, a ``SplitProblem``'s terms, the path-cap
variable, the ends of a path listing (``enumerate_simple_paths`` and
``PathCatalog.pair_split``), the weights of a workload built in code (ints
past the float range among them), and mutated network and workload
documents.
Whatever the input, the call returns or raises ``EdgeEmbedError`` or a
subclass, the set the CLI maps to exit 2 or 3. Workloads stay small (at
most 6 servers, 3 DAGs and 8 functions) and nothing starts a process or
thread.
"""

from __future__ import annotations

import dataclasses
import os
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from edge_embed import (
    DagRecord,
    EdgeEmbedError,
    FunctionNode,
    SplitProblem,
    StreamEdge,
    WorkloadDag,
    WorkloadSpec,
    augment_dummy_tail,
    bisection_oracle,
    build_catalog,
    dag_from_json,
    enumerate_simple_paths,
    generate_dag_records,
    generate_network,
    nested_networks,
    network_from_json,
    network_to_json,
    optimal_split,
    resolve_path_cap,
    run_benchmark,
    scale_network,
    simulate_embedding,
)
from edge_embed.cli import EMBEDDERS
from edge_embed.pathfind import PATH_CAP_ENV_VAR

from conftest import triangle_network
from test_cli import DIAMOND
from test_cli_properties import BAD_VALUES, mutated

SPEC = WorkloadSpec(seed=0, n_servers=4, n_dags=2, dag_size_range=(2, 5))
NET = generate_network(SPEC)
CATALOG = build_catalog(NET)
AUG = generate_dag_records(SPEC)[0].augmented()

# None leaves the variable unset, drawn about as often as "30" and as all
# the malformed caps together; every set value keeps the walk small
PATH_CAPS = [None, "30", "0", "", " 7 ", "-1", "abc", "1_0", "３", "1e3", "2.5"]

bad = st.sampled_from(BAD_VALUES)
# numbers a valid call could hold, some at the ends of the float range
numbers = st.sampled_from([0.5, 1.0, 2.0, 1, 2, 3, 4, 6, 1e-300, 1e308])
values = bad | numbers
hashable = values.filter(lambda x: not isinstance(x, (list, dict)))
sequences = (
    st.tuples(numbers, numbers) | st.tuples(values, values) | st.lists(values, max_size=3)
)


def _spec(fields):
    spec = dataclasses.replace(SPEC, **fields)
    if spec.n_servers <= 6 and spec.n_dags <= 3 and spec.dag_size_range[1] <= 8:
        generate_network(spec)
        generate_dag_records(spec)
        run_benchmark(["dpe", "heft"], spec=spec)


def _ready(algo, ready):
    result = EMBEDDERS[algo](AUG, NET, CATALOG, ready)
    simulate_embedding(AUG, NET, result.placements, result.edge_mappings, ready)


def _split(coefficients, size):
    problem = SplitProblem(coefficients, size)
    optimal_split(problem)
    bisection_oracle(problem)


def _cap():
    resolve_path_cap()
    build_catalog(triangle_network())


def _weights(flops, bits, out):
    # built in code, so an int weight reaches the checks as an int
    dag = WorkloadDag((FunctionNode(0, flops), FunctionNode(1, 1.0)), (StreamEdge(0, 1, bits),))
    run_benchmark(["dpe", "heft"], network=NET, dag_records=[DagRecord(dag, {1: out})])


def _dag_document(doc):
    augment_dummy_tail(*dag_from_json(doc))


ENTRIES = {
    "spec": _spec,
    "ready": _ready,
    "scale": lambda psi, throughput: scale_network(NET, psi, throughput),
    "nested": lambda counts: nested_networks(SPEC, counts),
    "split": _split,
    "cap": _cap,
    "paths": lambda src, dst: enumerate_simple_paths(NET, src, dst),
    # a fresh catalog, so that every pair is checked on its first listing
    "pair-split": lambda u, v: build_catalog(NET).pair_split(u, v),
    "weights": _weights,
    "network-json": network_from_json,
    "dag-json": _dag_document,
}


@st.composite
def calls(draw):
    """``(entry, args, path cap)``: one mutated call of ``ENTRIES[entry]``."""
    entry = draw(st.sampled_from(sorted(ENTRIES)))
    if entry == "spec":
        names = [f.name for f in dataclasses.fields(WorkloadSpec)]
        picked = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
        args = ({name: draw(values | sequences) for name in picked},)
    elif entry == "ready":
        ready = draw(
            st.dictionaries(hashable, values, max_size=3)
            | st.dictionaries(st.sampled_from(range(4)), values, min_size=1, max_size=2)
            | st.builds(types.MappingProxyType, st.dictionaries(hashable, values, max_size=2))
            | bad
        )
        args = (draw(st.sampled_from(sorted(EMBEDDERS))), ready)
    elif entry == "scale":
        args = (draw(values), draw(values))
    elif entry == "nested":
        counts = st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True)
        args = (draw(counts | sequences | bad),)
    elif entry == "split":
        args = (draw(sequences | bad), draw(values))
    elif entry == "cap":
        args = ()
    elif entry in ("paths", "pair-split"):
        args = (draw(values), draw(values))
    elif entry == "weights":
        args = tuple(draw(values | st.just(10**400)) for _ in range(3))
    elif entry == "network-json":
        args = (draw(mutated(network_to_json(NET))),)
    else:
        args = (draw(mutated(DIAMOND)),)
    return entry, args, draw(st.sampled_from(PATH_CAPS[:2]) | st.sampled_from(PATH_CAPS))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(calls())
def test_library_entry_points_raise_only_edge_embed_errors(call):
    entry, args, cap = call
    saved = os.environ.pop(PATH_CAP_ENV_VAR, None)
    if cap is not None:
        os.environ[PATH_CAP_ENV_VAR] = cap
    try:
        ENTRIES[entry](*args)
    except EdgeEmbedError:
        pass
    finally:
        os.environ.pop(PATH_CAP_ENV_VAR, None)
        if saved is not None:
            os.environ[PATH_CAP_ENV_VAR] = saved
