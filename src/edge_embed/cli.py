"""Command-line front end.

Subcommands: paths (enumerate routes between two servers), split (divide a
stream across path coefficients), embed (schedule one workload), gen
(write a seeded workload to disk), bench (run algorithms over a workload
and emit reports). Exit codes: 0 success, 2 invalid input, 3 path-count
explosion.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import (
    ALGORITHMS,
    WorkloadSpec,
    _read_json,
    emit_report,
    load_dag_records,
    load_network,
    run_benchmark,
    write_workload,
)
from .embedder import brute_force_embed, embedding_to_json
from .errors import EdgeEmbedError, PathExplosionError, ValidationError
from .model import _json_key, augment_dummy_tail, dag_from_json, validate_time_range
from .pathfind import build_catalog, enumerate_simple_paths, path_coefficient
from .splitter import SplitProblem, bisection_oracle, optimal_split

EMBEDDERS = {**ALGORITHMS, "brute": brute_force_embed}


def _load_ready(raw) -> dict:
    """A ``{"<server id>": seconds}`` map keyed by integer server id. Only
    its shape and keys are read here: the library checks servers and times."""
    if not isinstance(raw, dict):
        raise ValidationError("ready file must map server ids to seconds")
    try:
        return {_json_key(key): value for key, value in raw.items()}
    except ValidationError as exc:
        raise ValidationError(f"ready file: {exc}") from exc


def _cmd_paths(args) -> int:
    net = load_network(args.network)
    paths = enumerate_simple_paths(net, args.src, args.dst)
    for p in paths:
        coeff = path_coefficient(p, net)
        print(f"{'-'.join(str(n) for n in p.nodes)} coeff={coeff:.6g}")
    print(f"{len(paths)} simple paths from {args.src} to {args.dst}")
    return 0


def _ascii(kind, what: str):
    """The reader of ``kind`` (``int`` or ``float``) spelled in ASCII without
    "_", else ValidationError: ``kind`` alone also reads "1_0" and non-ASCII
    digits. It keeps ``kind``'s name for argparse's "invalid int value"."""

    def read(text: str):
        try:
            if text.isascii() and "_" not in text:
                return kind(text)
        except ValueError:
            pass
        raise ValidationError(f"{text!r} is not {what}")

    read.__name__ = kind.__name__
    return read


_number = _ascii(float, "a number")
_integer = _ascii(int, "an integer")


def _cmd_split(args) -> int:
    problem = SplitProblem(tuple(map(_number, args.coeffs.split(","))), _number(args.size))
    solution = optimal_split(problem)
    payload = {
        "bottleneck_time_s": solution.bottleneck_time,
        "allocations_bits": list(solution.allocations),
    }
    if args.verify:
        oracle = bisection_oracle(problem)
        if not math.isfinite(oracle):  # its start, size * min(A_k), overflows
            raise ValidationError("the bisection oracle leaves the float range")
        payload["oracle_bottleneck_time_s"] = oracle
        payload["oracle_gap_rel"] = (
            abs(oracle - solution.bottleneck_time) / solution.bottleneck_time
        )
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_embed(args) -> int:
    net = load_network(args.network)
    dag, dst_out = dag_from_json(_read_json(args.dag))
    aug = augment_dummy_tail(dag, dst_out)
    ready = _load_ready(_read_json(args.ready)) if args.ready else None
    validate_time_range(aug, net, ready)
    result = EMBEDDERS[args.algo](aug, net, build_catalog(net), ready)
    print(json.dumps(embedding_to_json(result), sort_keys=True, indent=2))
    return 0


def _cmd_gen(args) -> int:
    spec = WorkloadSpec(
        seed=args.seed, n_servers=args.servers, connectivity=args.connectivity,
        n_dags=args.dags,
    )
    net_path, dags_path = write_workload(spec, args.out)
    print(f"wrote {net_path}")
    print(f"wrote {dags_path}")
    return 0


def _cmd_bench(args) -> int:
    algos = [a for a in args.algos.split(",") if a]
    if args.network or args.dags:
        if not (args.network and args.dags):
            raise ValidationError("--network and --dags must be given together")
        bundle = run_benchmark(
            algos,
            network=load_network(args.network),
            dag_records=load_dag_records(args.dags),
        )
    else:
        spec = WorkloadSpec(
            seed=args.seed, n_servers=args.servers, connectivity=args.connectivity,
            n_dags=args.n_dags,
        )
        bundle = run_benchmark(algos, spec=spec)
    for path in emit_report(bundle, args.out):
        print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as rejected input: ``main`` prints one
    ``error:`` line and exits 2, without argparse's usage line. Subparsers
    are made of the same class."""

    def error(self, message: str):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="edge-embed",
        description=(
            "Joint function placement and multipath stream mapping for DAG "
            "workloads on edge networks"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_paths = sub.add_parser("paths", help="list simple paths between servers")
    p_paths.add_argument("--network", required=True)
    p_paths.add_argument("--src", type=_integer, required=True)
    p_paths.add_argument("--dst", type=_integer, required=True)
    p_paths.set_defaults(func=_cmd_paths)

    p_split = sub.add_parser("split", help="optimally divide a stream")
    p_split.add_argument("--coeffs", required=True,
                         help="comma-separated path coefficients in s/bit")
    p_split.add_argument("--size", required=True,
                         help="stream size in bits")
    p_split.add_argument("--verify", action="store_true",
                         help="cross-check against the bisection oracle")
    p_split.set_defaults(func=_cmd_split)

    p_embed = sub.add_parser("embed", help="embed one workload")
    p_embed.add_argument("--network", required=True)
    p_embed.add_argument("--dag", required=True)
    p_embed.add_argument("--algo", choices=list(EMBEDDERS), default="dpe")
    p_embed.add_argument(
        "--ready", help="JSON file mapping server id to ready seconds"
    )
    p_embed.set_defaults(func=_cmd_embed)

    p_gen = sub.add_parser("gen", help="generate a seeded workload")
    p_gen.add_argument("--seed", type=_integer, required=True)
    p_gen.add_argument("--servers", type=_integer, default=WorkloadSpec.n_servers)
    p_gen.add_argument("--connectivity", type=_number, default=WorkloadSpec.connectivity)
    p_gen.add_argument("--dags", type=_integer, default=WorkloadSpec.n_dags)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run algorithms and emit reports")
    p_bench.add_argument("--network")
    p_bench.add_argument("--dags")
    p_bench.add_argument("--algos", default=",".join(ALGORITHMS))
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--seed", type=_integer, default=WorkloadSpec.seed)
    p_bench.add_argument("--servers", type=_integer, default=WorkloadSpec.n_servers)
    p_bench.add_argument("--connectivity", type=_number, default=WorkloadSpec.connectivity)
    p_bench.add_argument("--n-dags", type=_integer, default=WorkloadSpec.n_dags)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PathExplosionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EdgeEmbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
