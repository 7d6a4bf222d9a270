"""Command line front end.

Subcommands:

  run      stream a file through one matcher, print matching + weight
  compare  run the standard lineup over one instance, report ratios
  gen      write a generated instance in stream text form
  bound    tabulate the worst-case ratio bound and its minimizer

Exit codes: 0 success, 1 usage error, 2 input error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .baseline import GAMMA_RATIO_SIX, run_baseline
from .bound import approx_bound, optimal_k, ratio_table
from .generators import GRAPH_KINDS, WEIGHT_KINDS, GeneratorSpec, WeightSpec, generate
from .graph import (DenseGraph, StreamFormatError, format_edge, open_stream,
                    write_stream)
from .harness import default_algorithms, emit_report, run_experiment
from .shadow import run_stream, trace_to_dict
from .verify import check_locally_k_exceeding

USAGE_ERROR = 1
INPUT_ERROR = 2
VERIFY_ERROR = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2
    # for input data problems.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shadowmatch",
                     description="One-pass weighted matching with shadow-edge "
                                 "reinsertion, plus baselines and tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[], help="run one matcher over a stream file")
    p_run.add_argument("stream", help="path to a stream text file")
    p_run.add_argument("--algo", choices=("shadow", "baseline"), default="shadow")
    p_run.add_argument("--k", type=float, default=None,
                       help="replacement threshold for shadow "
                            "(default: the bound minimizer, about 1.717)")
    p_run.add_argument("--gamma", type=float, default=GAMMA_RATIO_SIX,
                       help="baseline threshold (default 1.0)")
    p_run.add_argument("--trace", metavar="FILE",
                       help="write per-edge decisions as JSON lines")
    p_run.add_argument("--verify", action="store_true",
                       help="certify every insertion with the exact "
                            "allocation check (shadow only)")
    p_run.add_argument("--skip-duplicates", action="store_true",
                       help="drop repeated edges instead of failing")

    p_cmp = sub.add_parser("compare", help="run the standard lineup over one instance")
    p_cmp.add_argument("stream", help="path to a stream text file")
    p_cmp.add_argument("--k", type=float, default=None)
    p_cmp.add_argument("--orders", type=int, default=1,
                       help="number of edge orders to replay (default 1: "
                            "the file's own order)")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--no-oracle", action="store_true",
                       help="skip the exact optimum (no ratios)")
    p_cmp.add_argument("--oracle-limit", type=int, default=40)
    p_cmp.add_argument("--verify", action="store_true")
    p_cmp.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
    p_cmp.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the runs (default 1)")

    p_gen = sub.add_parser("gen", help="generate an instance as stream text")
    p_gen.add_argument("--kind", choices=GRAPH_KINDS, required=True)
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--p", type=float, default=0.5)
    p_gen.add_argument("--q", type=float, default=2.0)
    p_gen.add_argument("--weights", choices=WEIGHT_KINDS, default="uniform")
    p_gen.add_argument("--lo", type=float, default=0.1)
    p_gen.add_argument("--hi", type=float, default=10.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", metavar="FILE", default=None,
                       help="output path (default: stdout)")

    p_bound = sub.add_parser("bound", help="show the worst-case ratio bound")
    p_bound.add_argument("--k", type=float, default=None,
                         help="evaluate a single k instead of the grid")

    return parser


def _default_k() -> float:
    return optimal_k()[0]


def cmd_run(args) -> int:
    on_dup = "skip" if args.skip_duplicates else "error"
    stream = open_stream(args.stream, on_duplicate=on_dup)

    failures = 0
    trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        if args.algo == "shadow":
            k = args.k if args.k is not None else _default_k()

            def sink(event):
                nonlocal failures
                record = trace_to_dict(event)
                if args.verify and event.decision.inserted:
                    ok = check_locally_k_exceeding(event.decision, k).feasible
                    record["decision"]["allocation_feasible"] = ok
                    failures += not ok
                if trace_fh:
                    trace_fh.write(json.dumps(record, sort_keys=True) + "\n")

            traced = args.trace or args.verify
            result = run_stream(stream, k, trace=sink if traced else None)
        else:
            if args.k is not None:
                raise _UsageError("--k applies to the shadow matcher only")
            if args.verify:
                raise _UsageError("--verify applies to the shadow matcher only")
            result = run_baseline(stream, args.gamma)
    finally:
        if trace_fh:
            trace_fh.close()

    print(f"weight {result.weight!r}")
    for e in result.matching:
        print(format_edge(e))
    if args.verify:
        print(f"verifier_failures {failures}")
        if failures:
            return VERIFY_ERROR
    return 0


def cmd_compare(args) -> int:
    if args.orders < 1:
        raise _UsageError("--orders must be at least 1")
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    stream = open_stream(args.stream)
    edges = tuple(stream)
    graph = DenseGraph.from_edges(edges)
    k = args.k if args.k is not None else _default_k()
    reports = run_experiment(
        graph, default_algorithms(k),
        instance_id=args.stream,
        orders=args.orders,
        seed=args.seed,
        file_order=edges,
        oracle=not args.no_oracle,
        oracle_limit=args.oracle_limit,
        verify=args.verify,
        jobs=args.jobs)
    sys.stdout.write(emit_report(reports, args.format))
    if args.verify and any(r.verifier_failures for r in reports):
        return VERIFY_ERROR
    return 0


def cmd_gen(args) -> int:
    weights = WeightSpec(kind=args.weights, lo=args.lo, hi=args.hi, q=args.q)
    spec = GeneratorSpec(kind=args.kind, n=args.n, p=args.p, q=args.q,
                         weights=weights, seed=args.seed)
    graph, stream = generate(spec)
    edges = list(stream)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_stream(edges, fh, vertex_count=graph.n)
    else:
        write_stream(edges, sys.stdout, vertex_count=graph.n)
    return 0


def cmd_bound(args) -> int:
    if args.k is not None:
        print(f"k {args.k:.6f} ratio {approx_bound(args.k):.6f}")
        return 0
    print("k      ratio")
    for k, value in ratio_table(i / 10 for i in range(11, 31)):
        print(f"{k:.3f}  {value:.6f}")
    k_star, value = optimal_k()
    print(f"minimum k* = {k_star:.6f}  ratio = {value:.6f}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    handlers = {"run": cmd_run, "compare": cmd_compare,
                "gen": cmd_gen, "bound": cmd_bound}
    try:
        return handlers[args.command](args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Bad parameter values (k <= 1, malformed specs) are usage
        # errors; malformed stream text and unreadable files are input
        # errors.
        if isinstance(exc, (StreamFormatError, OSError)):
            return INPUT_ERROR
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
