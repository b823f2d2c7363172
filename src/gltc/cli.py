"""Command-line front end.

Subcommands: solve, oracle, reduce, gen, predict, bases. All reports are
line oriented and machine parseable on stdout; stderr carries
diagnostics only. Exit codes: 0 = YES, 1 = NO, 2 = error, resource
limit or any internal failure (so a crash is never read as NO).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .gen import random_instance
from .instance import (
    Instance,
    ParseError,
    gap_compression,
    instance_tau,
    parse_instance,
    reduce_channel,
    reduce_list_coloring,
    reduce_lpq,
    reduce_tcoloring,
    serialize_instance,
    _edge_key,
)
from .partition import _STRATEGIES, _check_strategy
from .partition import base_table_row, build_partition, predict_complexity
from .reference import brute_force_solve
from .solver import ResourceLimitError, SolveOptions, solve

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _load(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _check_partition_flag(value: str) -> str:
    try:
        _check_strategy(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _print_decision(decision: bool, witness, want_witness: bool) -> int:
    print("YES" if decision else "NO")
    if decision and want_witness and witness is not None:
        for v in sorted(witness):
            print(f"v {v} {witness[v]}")
    return EXIT_YES if decision else EXIT_NO


def _cmd_solve(args) -> int:
    inst = _load(args.file)
    result = solve(inst, options=SolveOptions(store_parents=args.witness))
    if args.trace:
        for idx, comp in enumerate(result.stats.components):
            print(f"# component {idx + 1} pruned {comp.pruned_labels}", file=sys.stderr)
            cum = 0
            for k, size in enumerate(comp.level_sizes, start=1):
                cum += size
                print(f"{k}\t{size}\t{cum}", file=sys.stderr)
    return _print_decision(result.decision, result.witness, args.witness)


def _cmd_oracle(args) -> int:
    inst = _load(args.file)
    if inst.graph.n > 12:
        print(
            f"warning: brute force on n={inst.graph.n} vertices may take very long",
            file=sys.stderr,
        )
    decision, witness = brute_force_solve(inst)
    return _print_decision(decision, witness, args.witness)


def _cmd_reduce(args) -> int:
    carrier = _load(args.file)
    g = carrier.graph
    lam = carrier.lam
    if args.model == "coloring":
        inst = reduce_list_coloring(g, lam)
    elif args.model == "lpq":
        inst = reduce_lpq(g, args.p, args.q, lam)
    elif args.model == "channel":
        if args.omega_default < 1:
            raise ValueError(f"--omega-default must be >= 1, got {args.omega_default}")
        omega = {e: args.omega_default for e in g.edges}
        for spec in args.omega or []:
            try:
                u, v, w = (int(tok) for tok in spec.split(","))
            except ValueError:
                raise ValueError(f"--omega expects 'u,v,w', got {spec!r}") from None
            if w < 1:
                raise ValueError(f"--omega weight must be >= 1, got {spec!r}")
            key = _edge_key(u, v)
            if key not in omega:
                raise ValueError(f"--omega names missing edge {u}-{v}")
            omega[key] = w
        inst = reduce_channel(g, omega, lam)
    elif args.model == "tcoloring":
        try:
            tset = {int(tok) for tok in args.t_set.split(",")}
        except ValueError:
            raise ValueError(f"--t-set expects 'd,d,...', got {args.t_set!r}") from None
        if min(tset) < 0:
            raise ValueError(f"--t-set differences must be >= 0, got {args.t_set!r}")
        if 0 not in tset:
            raise ValueError(f"--t-set must contain 0, got {args.t_set!r}")
        inst = reduce_tcoloring(g, tset, lam)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown model {args.model}")
    sys.stdout.write(serialize_instance(inst))
    return EXIT_YES


def _cmd_gen(args) -> int:
    inst = random_instance(args.n, args.density, args.tau, args.lmax, args.seed)
    sys.stdout.write(serialize_instance(inst))
    return EXIT_YES


def _cmd_predict(args) -> int:
    # price the instance solve runs: lists pruned, differences no labeling
    # gives dropped, tau taken after that
    inst, _ = gap_compression(_load(args.file))
    part = build_partition(inst, args.partition)
    est = predict_complexity(inst.graph, part, instance_tau(inst))
    print(f"partition {args.partition}")
    print("f " + " ".join(str(f) for f in est.per_block_f))
    print(f"product {est.product}")
    print(f"base {est.base:.4f}")
    if est.rho is not None:
        print(f"rho {est.rho}")
    return EXIT_YES


def _cmd_bases(args) -> int:
    row = base_table_row(args.tau)
    print(f"tau {args.tau}")
    for key in ("general", "subcubic", "matching", "unit_disk"):
        print(f"{key} {row[key]:.4f}")
    return EXIT_YES


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``gltc`` argument parser, built once per process and shared by
    every later call, so in-process callers of ``main`` do not pay for
    rebuilding it. Parsing leaves it as it was: each ``parse_args`` fills
    a fresh namespace from the defaults. Callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="gltc",
        description="Exact solver for the generalized list T-coloring decision problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide an instance file")
    p_solve.add_argument("file")
    p_solve.add_argument("--partition", type=_check_partition_flag, default="auto",
                         metavar=_STRATEGIES,
                         help="accepted and ignored: does not affect the solve "
                              "(see predict); goes at the next benchmark change")
    p_solve.add_argument("--witness", action="store_true",
                         help="print an explicit labeling on YES")
    p_solve.add_argument("--trace", action="store_true",
                         help="per-level table sizes on stderr")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force a small instance file")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--witness", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_reduce = sub.add_parser(
        "reduce",
        help="rewrite a classical labeling model as an instance file",
        description="The input file supplies the graph and the label lists; "
                    "its difference sets are ignored and rebuilt per model.",
    )
    p_reduce.add_argument("model", choices=("coloring", "lpq", "channel", "tcoloring"))
    p_reduce.add_argument("file")
    p_reduce.add_argument("--p", type=int, default=2, help="lpq: distance-1 separation")
    p_reduce.add_argument("--q", type=int, default=1, help="lpq: distance-2 separation")
    p_reduce.add_argument("--omega-default", type=int, default=1,
                          help="channel: weight for unlisted edges")
    p_reduce.add_argument("--omega", action="append", metavar="U,V,W",
                          help="channel: per-edge weight override")
    p_reduce.add_argument("--t-set", default="0",
                          help="tcoloring: comma-separated forbidden differences")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_gen = sub.add_parser("gen", help="emit a seeded random instance file")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--tau", type=int, default=1)
    p_gen.add_argument("--lmax", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_gen)

    p_predict = sub.add_parser("predict", help="report per-block prefix counts and base")
    p_predict.add_argument("file")
    p_predict.add_argument("--partition", type=_check_partition_flag, default="auto",
                           metavar=_STRATEGIES)
    p_predict.set_defaults(func=_cmd_predict)

    p_bases = sub.add_parser("bases", help="worst-case bases for one tau")
    p_bases.add_argument("--tau", type=int, required=True)
    p_bases.set_defaults(func=_cmd_bases)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ResourceLimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # MemoryError and bugs alike must not exit 1 (NO)
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
