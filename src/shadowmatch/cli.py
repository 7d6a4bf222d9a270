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
import logging
import sys

from .baseline import GAMMA_RATIO_SIX, BaselineMatcher
from .bound import K_STAR, approx_bound, optimal_k, ratio_table
from .generators import GRAPH_KINDS, WEIGHT_KINDS, GeneratorSpec, WeightSpec, generate
from .graph import (DenseGraph, StreamFormatError, format_edge, open_stream,
                    write_stream)
from .harness import default_algorithms, emit_report, run_experiment
from .shadow import ShadowMatcher, drive, trace_header, trace_line
# trace_to_dict is unused here; the benchmark's traced run wraps it by name.
from .shadow import trace_to_dict  # noqa: F401
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


class _StderrHandler(logging.StreamHandler):
    """Writes each record to `sys.stderr` as it is when the record is
    logged, so an in-process caller that redirects stderr between calls
    still gets each call's warnings."""

    def __init__(self):
        super().__init__()
        self.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        self.setLevel(logging.WARNING)

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _value):
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
                            "(default: 1.717191779457857, within 1.5e-8 "
                            "of the bound's minimizer)")
    p_run.add_argument("--gamma", type=float, default=None,
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


# Built once per process, as building them cost about half of a `compare` call.
_PARSER = build_parser()
_LOG_HANDLER = _StderrHandler()


def cmd_run(args) -> int:
    # Every option is checked, by the matcher's constructor too, before
    # FILE or the trace file is opened.
    if args.algo == "shadow":
        if args.gamma is not None:
            raise _UsageError("--gamma applies to the baseline matcher only")
        matcher = ShadowMatcher(args.k if args.k is not None else K_STAR)
    else:
        if args.k is not None:
            raise _UsageError("--k applies to the shadow matcher only")
        if args.verify:
            raise _UsageError("--verify applies to the shadow matcher only")
        matcher = BaselineMatcher(GAMMA_RATIO_SIX if args.gamma is None
                                  else args.gamma)
    on_dup = "skip" if args.skip_duplicates else "error"
    stream = open_stream(args.stream, on_duplicate=on_dup)

    failures = 0

    def certify(decision) -> bool:
        nonlocal failures
        ok = check_locally_k_exceeding(decision, matcher.threshold)
        failures += not ok
        return ok

    def sink(event):
        # Only an insertion's decision is read, so a settled rejection
        # is never scored.
        feasible = (certify(event.decision) if args.verify and event.inserted
                    else None)
        trace_fh.write(trace_line(event, feasible) + "\n")

    # One drive call, traced or not: with a trace file --verify
    # certifies each insertion in the sink as it writes the line,
    # without one from the insertion hook.
    trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        if trace_fh:
            trace_fh.write(trace_header(matcher) + "\n")
        result = drive(matcher, stream, trace=sink if trace_fh else None,
                       on_insert=None if trace_fh or not args.verify else certify)
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
    k = args.k if args.k is not None else K_STAR
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
    root = logging.getLogger()
    if _LOG_HANDLER not in root.handlers:
        root.addHandler(_LOG_HANDLER)
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    handlers = {"run": cmd_run, "compare": cmd_compare,
                "gen": cmd_gen, "bound": cmd_bound}
    try:
        return handlers[args.command](args)
    except OverflowError as exc:
        # Finite numbers whose sum or product leaves the float range:
        # stream weights (two edges near 1.7e308 in one matching), or a
        # parameter (`bound --k 1e308`).
        print(f"error: a result leaves the float range: {exc}", file=sys.stderr)
        return INPUT_ERROR if args.command in ("run", "compare") else USAGE_ERROR
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Bad parameter values (k <= 1, malformed specs) are usage
        # errors; malformed stream text, bytes that are not UTF-8 and
        # unreadable files are input errors.
        if isinstance(exc, (StreamFormatError, OSError)):
            return INPUT_ERROR
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
