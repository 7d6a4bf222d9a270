"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE <id> <title>: PASS|FAIL` line (visible
with `pytest -s`).  Most criteria share one sweep over the default desk
corpus: every graph on up to six vertices under fifty weight draws
(every edge order when the graph has at most six edges), plus ten
thousand random instances on up to twelve vertices, ten orders each.
Each run goes through `run_stream` or `run_baseline` with a
`helpers.InsertionAudit` hook, which certifies every shadow insertion
(C3) and checks every insertion's exact weight change (C7).
The sweep is single-threaded; it took 17-19 s on a 2-core x86-64
machine under CPython 3.11.7.  C10 starts `python -m shadowmatch` in a
fresh interpreter.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from helpers import audited_run, package_env
from shadowmatch.bound import approx_bound, optimal_k
from shadowmatch.generators import GADGET_EDGES
from shadowmatch.graph import edge
from shadowmatch.harness import (check_run_validity, default_algorithms,
                                 default_corpus, ratio_of)
from shadowmatch.oracle import OracleCapacityError, max_weight_matching
from shadowmatch.shadow import ShadowMatcher

K_STAR, BOUND_STAR = optimal_k()
RATIO_TOL = 1e-9


def _verdict(cid: str, title: str, ok: bool, detail: str = "") -> None:
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {cid} {title}: {'PASS' if ok else 'FAIL'}{extra}")
    assert ok, f"{cid} {title}{extra}"


@dataclass
class SweepStats:
    instances: int = 0
    runs: int = 0
    insertions: int = 0
    insertions_checked: int = 0
    oracle_skips: int = 0
    verifier_failures: int = 0
    validity_failures: int = 0
    memory_violations: int = 0
    work_violations: int = 0
    monotonicity_violations: int = 0
    worst_ratio: dict = field(default_factory=dict)
    ratio_sum: dict = field(default_factory=dict)
    ratio_count: dict = field(default_factory=dict)

    def record_ratio(self, key, ratio):
        if ratio is None:
            return
        self.worst_ratio[key] = max(self.worst_ratio.get(key, 0.0), ratio)
        self.ratio_sum[key] = self.ratio_sum.get(key, 0.0) + ratio
        self.ratio_count[key] = self.ratio_count.get(key, 0) + 1

    def mean_ratio(self, key):
        return self.ratio_sum[key] / self.ratio_count[key]


@pytest.fixture(scope="session")
def sweep() -> SweepStats:
    algorithms = default_algorithms(K_STAR)
    stats = SweepStats()
    for inst in default_corpus(seed=0):
        stats.instances += 1
        n = inst.graph.n
        try:
            opt = max_weight_matching(inst.graph, edge_limit=70).weight
        except OracleCapacityError:
            opt = None
            stats.oracle_skips += 1
        for _, order in inst.orders:
            for algo in algorithms:
                out, audit = audited_run(order, algo)
                m = out.metrics
                stats.runs += 1
                stats.insertions += m.insertions
                stats.insertions_checked += audit.checked
                stats.record_ratio((algo.name, algo.param),
                                   ratio_of(opt, out.weight))
                stats.verifier_failures += audit.not_certified
                if not check_run_validity(out.matching, inst.graph):
                    stats.validity_failures += 1
                limit = 3 * (n // 2) if algo.name == "shadow" else n // 2
                if m.max_stored_edges > limit:
                    stats.memory_violations += 1
                if algo.name == "shadow" and (m.max_candidate_sets > 7
                                              or m.max_touched_edges > 7):
                    stats.work_violations += 1
                if audit.not_increasing:
                    stats.monotonicity_violations += 1
    return stats


def test_c1_bound_arithmetic():
    exact = approx_bound(Fraction(2))
    ok = (approx_bound(2.0) == 5.75
          and exact == Fraction(23, 4)
          and 1.70 <= K_STAR <= 1.73
          and 5.584 <= BOUND_STAR <= 5.586)
    _verdict("C1", "ratio bound arithmetic", ok,
             f"R(2) = {approx_bound(2.0)!r} = {exact}, "
             f"k* = {K_STAR:.6f}, bound* = {BOUND_STAR:.6f}")


def test_c2_worst_case_ratio(sweep):
    key = ("shadow", K_STAR)
    worst = sweep.worst_ratio[key]
    shape_ok = (sweep.instances == 20_450 and sweep.oracle_skips == 0
                and sweep.ratio_count[key] > 100_000)
    ok = shape_ok and worst <= BOUND_STAR + RATIO_TOL
    _verdict("C2", "worst-case ratio within bound", ok,
             f"worst {worst:.6f} <= {BOUND_STAR:.6f} over "
             f"{sweep.ratio_count[key]} shadow runs, "
             f"{sweep.instances} instances")


def test_c3_every_insertion_certified(sweep):
    ok = sweep.verifier_failures == 0
    _verdict("C3", "exact allocation check on every insertion", ok,
             f"{sweep.verifier_failures} failures")


def test_c4_outputs_are_valid_matchings(sweep):
    ok = sweep.validity_failures == 0
    _verdict("C4", "every output a valid matching from the stream", ok,
             f"{sweep.validity_failures} failures over {sweep.runs} runs")


def test_c5_memory_bounds(sweep):
    ok = sweep.memory_violations == 0
    _verdict("C5", "stored edges within 3*floor(n/2) / floor(n/2)", ok,
             f"{sweep.memory_violations} violations")


def test_c6_constant_work_per_edge(sweep):
    ok = sweep.work_violations == 0
    _verdict("C6", "at most 7 candidate sets and 7 touched edges", ok,
             f"{sweep.work_violations} violations")


def test_c7_weight_monotone_on_insertion(sweep):
    # The hook counts what it checked, so one never attached fails here.
    ok = (sweep.monotonicity_violations == 0
          and sweep.insertions_checked == sweep.insertions > 0)
    _verdict("C7", "matching weight strictly increases on insertion", ok,
             f"{sweep.monotonicity_violations} violations, "
             f"{sweep.insertions_checked} of {sweep.insertions} "
             f"insertions checked")


def test_c8_gadget_golden_step():
    a1c1 = edge(4, 6, 1.0)
    g1y1 = edge(0, 2, 2.0)
    a1g1 = edge(2, 4, 6.0)
    g2y2 = edge(1, 3, 1.0)
    a2g2 = edge(3, 5, 1.0)
    a2c2 = edge(5, 7, 1.0)
    y1y2 = edge(0, 1, 6.0)
    assert set(GADGET_EDGES) == {a1c1, g1y1, a1g1, g2y2, a2g2, a2c2, y1y2}

    matcher = ShadowMatcher(1.5)
    for m in (g1y1, g2y2, a1c1, a2c2):
        matcher.matching[m.u] = m
        matcher.matching[m.v] = m
    matcher.matched_edge_count = 4
    matcher.shadow_slots[2] = a1g1
    matcher.shadow_slots[3] = a2g2

    decision = matcher.process_edge(y1y2)
    slots_expected = {0: g1y1, 2: g1y1, 1: g2y2, 4: a1c1}
    ok = (decision.inserted
          and decision.chosen == (y1y2, a1g1)
          and decision.removed == (g1y1, g2y2, a1c1)
          and decision.gain == 6.0
          and matcher.shadow_slots == slots_expected
          and set(matcher.matching.values()) == {y1y2, a1g1, a2c2})
    _verdict("C8", "two-sided gadget golden step", ok,
             f"A = {[e.key for e in decision.chosen]}, "
             f"removed = {[e.key for e in decision.removed]}, "
             f"slots = {sorted((v, e.key) for v, e in matcher.shadow_slots.items())}")


def test_c9_baseline_sanity(sweep):
    key_b1 = ("baseline", 1.0)
    key_b2 = ("baseline", 0.7071067811865476)
    key_s = ("shadow", K_STAR)
    worst = sweep.worst_ratio[key_b1]
    ok = worst <= 6.0 + RATIO_TOL
    _verdict("C9", "threshold baseline within its ratio", ok,
             f"gamma=1 worst {worst:.6f} <= 6; mean ratios: "
             f"shadow {sweep.mean_ratio(key_s):.4f}, "
             f"baseline[1] {sweep.mean_ratio(key_b1):.4f}, "
             f"baseline[0.7071] {sweep.mean_ratio(key_b2):.4f}")


def test_c10_cli_byte_determinism(tmp_path):
    env = package_env()

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "shadowmatch", *argv],
                              capture_output=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    same = {}
    inst = tmp_path / "inst.txt"
    gen = ["gen", "--kind", "gnp-random", "--n", "10", "--seed", "5",
           "--out", str(inst)]
    same["gen stdout"] = run(gen) == run(gen)
    first_bytes = inst.read_bytes()
    run(gen)
    same["gen file bytes"] = inst.read_bytes() == first_bytes

    trace_a, trace_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    out_a = run(["run", str(inst), "--k", "1.717", "--verify",
                 "--trace", str(trace_a)])
    out_b = run(["run", str(inst), "--k", "1.717", "--verify",
                 "--trace", str(trace_b)])
    same["run stdout"] = out_a == out_b
    same["trace bytes"] = trace_a.read_bytes() == trace_b.read_bytes()
    for line in trace_a.read_text(encoding="utf-8").splitlines():
        json.loads(line)

    cmp_argv = ["compare", str(inst), "--orders", "12", "--seed", "3",
                "--verify", "--format", "csv"]
    same["compare CSV"] = run(cmp_argv) == run(cmp_argv)
    same["bound"] = run(["bound"]) == run(["bound"])
    differed = [name for name, ok in same.items() if not ok]
    _verdict("C10", "CLI output byte-identical across reruns", not differed,
             f"differed: {', '.join(differed)}" if differed else
             f"{len(same)} outputs compared")
