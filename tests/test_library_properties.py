"""Property test: mutated values at every library entry point that takes
user values raise only ``EdgeEmbedError``.

Each example picks one entry point and calls it with values drawn around
valid ones: a ``WorkloadSpec`` with one or two fields swapped, a ready map
with bad keys, times or shape, ``scale_network`` factors,
``nested_networks`` counts, a ``SplitProblem``'s terms, the path-cap
variable, the ends of a path listing (``enumerate_simple_paths`` and
``PathCatalog.pair_split``), the weights of a workload built in code (ints
past the float range among them), the function ids and stream ends of one,
the ids, ends and capacities of a network built in code, the output sizes
``dag_to_json`` writes, and mutated network and workload documents. Every
drawn value may be an int too long for Python to format (``10**5000``),
which an error message must name without formatting.
Whatever the input, the call returns or raises ``EdgeEmbedError`` or a
subclass, the set the CLI maps to exit 2 or 3. Workloads stay small (at
most 6 servers, 3 DAGs and 8 functions) and nothing starts a process or
thread.
"""

from __future__ import annotations

import dataclasses
import os
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edge_embed import (
    DagRecord,
    EdgeEmbedError,
    FunctionNode,
    Link,
    Server,
    SplitProblem,
    StreamEdge,
    ValidationError,
    WorkloadDag,
    WorkloadSpec,
    augment_dummy_tail,
    bisection_oracle,
    build_catalog,
    dag_from_json,
    dag_to_json,
    enumerate_simple_paths,
    generate_dag_records,
    generate_network,
    make_network,
    nested_networks,
    network_from_json,
    network_to_json,
    optimal_split,
    resolve_path_cap,
    run_benchmark,
    scale_network,
    simulate_embedding,
    validate_dag,
    validate_network,
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
PAIR = WorkloadDag((FunctionNode(0, 1.0), FunctionNode(1, 1.0)), (StreamEdge(0, 1, 1.0),))

# None leaves the variable unset, drawn about as often as "30" and as all
# the malformed caps together; every set value keeps the walk small
PATH_CAPS = [None, "30", "0", "", " 7 ", "-1", "abc", "1_0", "３", "1e3", "2.5"]

bad = st.sampled_from(BAD_VALUES)
# numbers a valid call could hold, some at the ends of the float range
numbers = st.sampled_from([0.5, 1.0, 2.0, 1, 2, 3, 4, 6, 1e-300, 1e308])
# past Python's 4,300-digit limit for formatting an int, built when drawn so
# that hypothesis never formats it in the strategy's repr
values = bad | numbers | st.builds(pow, st.just(10), st.just(5000))
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


def _dag_ids(ids, ends):
    # built in code, so an id or a stream end reaches the checks as drawn
    dag = WorkloadDag(tuple(FunctionNode(i, 1.0) for i in ids), (StreamEdge(*ends, 1.0),))
    run_benchmark(["dpe", "heft"], network=NET, dag_records=[DagRecord(dag, {1: 1.0})])


def _network(servers, links):
    net = make_network([Server(*s) for s in servers], [Link(*l) for l in links])
    validate_network(net)
    run_benchmark(["dpe", "heft"], network=net, dag_records=[DagRecord(PAIR, {1: 1.0})])


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
    "dag-ids": _dag_ids,
    "network": _network,
    "dag-to-json": lambda dst_out: dag_to_json(PAIR, dst_out),
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
    elif entry == "dag-ids":
        args = tuple((draw(st.just(0) | values), draw(st.just(1) | values)) for _ in range(2))
    elif entry == "network":
        ids = st.sampled_from(range(3)) | values
        servers = [
            (draw(st.just(i) | values), draw(values)) for i in range(draw(st.integers(1, 3)))
        ]
        links = [
            (draw(st.just(k) | values), draw(ids), draw(ids), draw(values))
            for k in range(draw(st.integers(0, 3)))
        ]
        args = (servers, links)
    elif entry == "dag-to-json":
        sizes = values | st.just(10**400)
        args = (draw(st.dictionaries(st.sampled_from(range(3)), sizes, max_size=2)),)
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


HUGE = 10**5000  # too many digits for Python to format
PAST = "an int past the float range"
# (call, what its ValidationError message says)
NAMED_IN_ERRORS = {
    "ready-time": (lambda: _ready("dpe", {0: HUGE}), PAST),
    "ready-key": (lambda: _ready("dpe", {HUGE: 1.0}), PAST),
    "scale": (lambda: scale_network(NET, HUGE), PAST),
    "paths": (lambda: enumerate_simple_paths(NET, HUGE, 1), PAST),
    "pair-split": (lambda: build_catalog(NET).pair_split(0, -HUGE), PAST),
    "spec-pair": (lambda: dataclasses.replace(SPEC, psi_range=[1.0, 2.0, HUGE]), PAST),
    "nested": (lambda: nested_networks(SPEC, [1.5, HUGE]), PAST),
    "augment-key": (lambda: augment_dummy_tail(PAIR, {1: 1.0, HUGE: 1.0}), PAST),
    "augment-mixed-keys": (
        lambda: augment_dummy_tail(PAIR, {1: 1.0, "a": 1.0, None: 2.0}),
        r"non-destinations \['a', None\]$",
    ),
    "dag-id-text": (lambda: _dag_ids((0, "a"), (0, 1)), "integers, got 'a'$"),
    "dag-id-huge": (lambda: _dag_ids((0, HUGE), (0, 1)), PAST),
    "dag-id-float": (lambda: _dag_ids((0, 1.0), (0, 1)), r"integers, got 1\.0$"),
    "dag-id-bool": (lambda: _dag_ids((0, True), (0, 1)), "integers, got True$"),
    "stream-end-float": (lambda: _dag_ids((0, 1), (0, 1.0)), r"^edge 0->1\.0 references"),
    "link-end-float": (
        lambda: _network([(0, 1.0), (1, 1.0)], [(0, 0, 1.0, 1.0)]),
        r"unknown server \(0, 1\.0\)$",
    ),
    "link-end-bool": (
        lambda: _network([(0, 1.0), (1, 1.0)], [(0, True, 1, 1.0)]),
        r"unknown server \(True, 1\)$",
    ),
    "server-id-huge": (lambda: _network([(0, 1.0), (HUGE, 1.0)], []), PAST),
    "dag-to-json": (lambda: dag_to_json(PAIR, {1: HUGE}), PAST),
    "dag-to-json-1e400": (lambda: dag_to_json(PAIR, {1: 10**400}), PAST),
    "dag-to-json-none": (lambda: dag_to_json(PAIR, {1: None}), "must be finite, got None"),
}


@pytest.mark.parametrize("call, says", NAMED_IN_ERRORS.values(), ids=NAMED_IN_ERRORS)
def test_rejected_values_are_named_in_the_error(call, says):
    with pytest.raises(ValidationError, match=says):
        call()


def _pair_dag(flops=1.0, bits=1.0, second_id=1):
    functions = (FunctionNode(0, flops), FunctionNode(second_id, 1.0))
    return WorkloadDag(functions, (StreamEdge(0, 1, bits),))


def _pair_network(psi=1.0, throughput=1.0, second_id=1, end=1):
    return make_network(
        [Server(0, psi), Server(second_id, 1.0)], [Link(0, 0, end, throughput)]
    )


# a bool is neither a number nor an id, whichever role it stands in
TRUE_IN_EACH_ROLE = {
    "flops": lambda: validate_dag(_pair_dag(flops=True)),
    "bits": lambda: validate_dag(_pair_dag(bits=True)),
    "output": lambda: augment_dummy_tail(PAIR, {1: True}),
    "psi": lambda: validate_network(_pair_network(psi=True)),
    "throughput": lambda: validate_network(_pair_network(throughput=True)),
    "server-id": lambda: validate_network(_pair_network(second_id=True)),
    "function-id": lambda: validate_dag(_pair_dag(second_id=True)),
    "link-end": lambda: validate_network(_pair_network(end=True)),
}


@pytest.mark.parametrize("call", TRUE_IN_EACH_ROLE.values(), ids=TRUE_IN_EACH_ROLE)
def test_true_is_rejected_in_every_role(call):
    with pytest.raises(ValidationError, match="True"):
        call()
