"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest bench/tests -q

Every workload runs scaled down, timed and traced.  The checks: each
metric BENCHMARK.json names is emitted with its unit and a direction,
spans nest, no self time is negative, and the command refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from inputs import WORKLOADS, scaled  # noqa: E402
from refclock import RefClock  # noqa: E402

SPEC = run.load_spec(ROOT)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    workload = scaled(WORKLOADS[request.param], 0.02)
    out = {}
    for trace in (False, True):
        workdir = tmp_path_factory.mktemp(f"{request.param}-{int(trace)}")
        out[trace] = run.run_workload(workload, 3, 0.1, trace, workdir)
    return out


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit_and_direction(runs, trace):
    metrics, checks, _ = runs[trace]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    result = run.result_line(SPEC, trace, metrics, checks)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert m["better"] in ("higher", "lower")
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    json.dumps(result)


def test_spans_nest_and_self_times_are_not_negative(runs):
    _, _, tracer = runs[True]
    assert len(tracer) > 0
    assert tracer.nesting_errors() == 0
    assert min(tracer.self_ns()) >= 0
    for phase in ("shadow", "verify_trace", "sweep", "compare"):
        shares = tracer.layer_shares(f"bench.{phase}")
        assert shares and abs(sum(shares.values()) - 1.0) < 1e-9


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "desk",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_clock_leaves_bursts_out():
    clock = RefClock()
    t0 = clock.now()
    for _ in range(20):
        sum(range(2000))
        clock.tick()
    clock.refresh()
    t1 = clock.now()
    assert 0 < t1 - t0
    # A burst alone adds (almost) nothing to the clock.
    clock.refresh()
    assert clock.now() - t1 < 0.01
