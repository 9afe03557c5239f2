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

from .baselines import heft_schedule, passive_routes, placement_only_embed
from .bench import (
    WorkloadSpec,
    _read_json,
    emit_report,
    load_dag_records,
    load_network,
    run_benchmark,
    write_workload,
)
from .embedder import brute_force_embed, dpe_embed, embedding_to_json
from .errors import EdgeEmbedError, PathExplosionError, SchemaError, ValidationError
from .model import augment_dummy_tail, dag_from_json, validate_time_range
from .pathfind import (
    build_catalog,
    enumerate_simple_paths,
    path_coefficient,
    resolve_path_cap,
)
from .splitter import SplitProblem, bisection_oracle, optimal_split


def _load_ready(raw, n_servers: int) -> dict[int, float]:
    """Per-server ready seconds from a ``{"<server id>": seconds}`` map."""
    if not isinstance(raw, dict):
        raise SchemaError("ready file must map server ids to seconds")
    ready: dict[int, float] = {}
    for key, value in raw.items():
        try:
            server, seconds = int(key), float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"ready entry {key!r}: {exc}") from exc
        if not 0 <= server < n_servers:
            raise SchemaError(f"ready file names unknown server {server}")
        if not math.isfinite(seconds):
            raise SchemaError(f"ready time of server {server} must be finite")
        ready[server] = seconds
    return ready


def _cmd_paths(args) -> int:
    net = load_network(args.network)
    paths = enumerate_simple_paths(
        net, args.src, args.dst, path_cap=resolve_path_cap()
    )
    for p in paths:
        coeff = path_coefficient(p, net)
        print(f"{'-'.join(str(n) for n in p.nodes)} coeff={coeff:.6g}")
    print(f"{len(paths)} simple paths from {args.src} to {args.dst}")
    return 0


def _cmd_split(args) -> int:
    try:
        coefficients = tuple(float(c) for c in args.coeffs.split(","))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    problem = SplitProblem(coefficients=coefficients, stream_size=args.size)
    solution = optimal_split(problem)
    payload = {
        "bottleneck_time_s": solution.bottleneck_time,
        "allocations_bits": list(solution.allocations),
    }
    if args.verify:
        oracle = bisection_oracle(problem, tol=1e-15 * solution.bottleneck_time)
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
    ready = None
    if args.ready:
        ready = _load_ready(_read_json(args.ready), net.n_servers)
    if ready is not None and args.algo in ("heft", "placement-only"):
        raise SchemaError(f"--ready is not supported by {args.algo}")
    validate_time_range(aug, net, ready)
    catalog = build_catalog(net)
    if args.algo == "dpe":
        result = dpe_embed(aug, net, catalog, ready)
    elif args.algo == "brute":
        result = brute_force_embed(aug, net, catalog, ready)
    elif args.algo == "placement-only":
        result = placement_only_embed(aug, net, catalog)
    else:
        result = heft_schedule(aug, net, passive_routes(catalog))
    print(json.dumps(embedding_to_json(result), sort_keys=True, indent=2))
    return 0


def _cmd_gen(args) -> int:
    spec = WorkloadSpec(
        seed=args.seed,
        n_servers=args.servers,
        connectivity=args.connectivity,
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
            raise SchemaError("--network and --dags must be given together")
        bundle = run_benchmark(
            algos,
            network=load_network(args.network),
            dag_records=load_dag_records(args.dags),
            timing=args.timing,
        )
    else:
        spec = WorkloadSpec(
            seed=args.seed,
            n_servers=args.servers,
            connectivity=args.connectivity,
            n_dags=args.n_dags,
        )
        bundle = run_benchmark(algos, spec=spec, timing=args.timing)
    for path in emit_report(bundle, args.out):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edge-embed",
        description=(
            "Joint function placement and multipath stream mapping for DAG "
            "workloads on edge networks"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_paths = sub.add_parser("paths", help="list simple paths between servers")
    p_paths.add_argument("--network", required=True)
    p_paths.add_argument("--src", type=int, required=True)
    p_paths.add_argument("--dst", type=int, required=True)
    p_paths.set_defaults(func=_cmd_paths)

    p_split = sub.add_parser("split", help="optimally divide a stream")
    p_split.add_argument("--coeffs", required=True,
                         help="comma-separated path coefficients in s/bit")
    p_split.add_argument("--size", type=float, required=True,
                         help="stream size in bits")
    p_split.add_argument("--verify", action="store_true",
                         help="cross-check against the bisection oracle")
    p_split.set_defaults(func=_cmd_split)

    p_embed = sub.add_parser("embed", help="embed one workload")
    p_embed.add_argument("--network", required=True)
    p_embed.add_argument("--dag", required=True)
    p_embed.add_argument(
        "--algo",
        choices=["dpe", "heft", "placement-only", "brute"],
        default="dpe",
    )
    p_embed.add_argument(
        "--ready", help="JSON file mapping server id to ready seconds"
    )
    p_embed.set_defaults(func=_cmd_embed)

    p_gen = sub.add_parser("gen", help="generate a seeded workload")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--servers", type=int, default=6)
    p_gen.add_argument("--connectivity", type=float, default=0.5)
    p_gen.add_argument("--dags", type=int, default=200)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run algorithms and emit reports")
    p_bench.add_argument("--network")
    p_bench.add_argument("--dags")
    p_bench.add_argument("--algos", default="dpe,heft,placement-only")
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--servers", type=int, default=6)
    p_bench.add_argument("--connectivity", type=float, default=0.5)
    p_bench.add_argument("--n-dags", type=int, default=200)
    # Wall-clock timing makes report bytes vary run to run; it is opt-in
    # here so two identical invocations produce identical files.
    p_bench.add_argument("--timing", choices=["wall", "off"], default="off")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PathExplosionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EdgeEmbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
