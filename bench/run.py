#!/usr/bin/env python3
"""The shadowmatch benchmark: one workload per invocation.

    python3 bench/run.py --workload uniform-n300 --seed 0 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Set-up draws the workload's inputs from --seed into a scratch
directory, then the measured phases run in this one process (no
workers, no threads) for about --seconds.  With --trace 0 the output
holds the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics, from a separate traced run.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every result line, and the spans of a traced run, are also kept under
./.bench_out.  Exit status 2 means the program or BENCHMARK.json is
missing, 1 that the run broke off.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, spans_path: Path | None = None):
    """Measure one workload; returns (metrics, checks, tracer or None)."""
    import measure
    from spans import Tracer

    checks = measure.Checks()
    if trace:
        tracer = Tracer()
        metrics = measure.traced_run(workload, seed, workdir, checks, tracer)
        if spans_path is not None:
            tracer.write(spans_path)
        return metrics, checks, tracer
    inputs, setup_s = measure.set_up(workload, seed, workdir)
    metrics = measure.timed_run(workload, inputs, setup_s, seconds, workdir,
                                checks)
    return metrics, checks, None


def result_line(spec: dict, trace: bool, metrics: dict, checks) -> dict:
    listed = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def print_table(spec: dict, trace: bool, workload: str, seed: int,
                result: dict, checks, scaling: float | None) -> None:
    listed = spec["per_layer" if trace else "end_to_end"]
    print(f"# shadowmatch bench  workload={workload}  seed={seed}  "
          f"{'traced' if trace else 'timed'}")
    print(f"{'metric':42s} {'value':>14s}  {'unit':8s} better")
    for m in listed:
        value = result["metrics"][m["name"]]["value"]
        print(f"{m['name']:42s} {value:14.6g}  {m['unit']:8s} {m['better']}")
    share = checks.failed / checks.attempted
    print(f"{'failed_share':42s} {share:14.6g}  {'share':8s} lower")
    for reason, count in sorted(checks.reasons.items()):
        print(f"#   failure: {reason} x{count}")
    if scaling is not None:
        print(f"# scaling (not gated): shadow_us_per_edge uniform-n30k / "
              f"uniform-n300 = {scaling:.3f} at seed {seed}, target <= 1.5")


def scaling_figure(workload: str, seed: int, result: dict) -> float | None:
    """ROADMAP item 2's figure, once both uniform rows exist for a seed."""
    rows = {}
    for name in ("uniform-n300", "uniform-n30k"):
        path = OUT / f"{name}-seed{seed}-trace0.json"
        if name == workload:
            rows[name] = result
        elif path.is_file():
            rows[name] = json.loads(path.read_text(encoding="utf-8"))
    if len(rows) < 2:
        return None
    v = [rows[n]["metrics"]["shadow_us_per_edge"]["value"]
         for n in ("uniform-n30k", "uniform-n300")]
    return v[0] / v[1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shadowmatch" / "__init__.py").is_file():
        print(f"error: no shadowmatch sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        spec = load_spec(ROOT)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from inputs import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        metrics, checks, _ = run_workload(
            workload, args.seed, args.seconds, trace, workdir,
            OUT / f"{tag}-spans.jsonl.gz" if trace else None)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = result_line(spec, trace, metrics, checks)
    (OUT / f"{tag}.json").write_text(json.dumps(result) + "\n",
                                     encoding="utf-8")
    scaling = None if trace else scaling_figure(args.workload, args.seed, result)
    print_table(spec, trace, args.workload, args.seed, result, checks, scaling)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
