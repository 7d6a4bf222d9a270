"""Command line behavior: outputs, formats, exit codes."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import logging
import subprocess
import sys

import pytest

from helpers import package_env
from shadowmatch import cli
from shadowmatch.baseline import run_baseline
from shadowmatch.cli import main
from shadowmatch.generators import GeneratorSpec, generate
from shadowmatch.graph import open_stream
from shadowmatch.harness import CSV_COLUMNS

GOOD = "p 6 3\n0 1 3.0\n2 3 4.0\n4 5 5.0\n"


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(GOOD, encoding="utf-8")
    return str(path)


def test_run_prints_weight_then_matching(stream_file, capsys):
    assert main(["run", stream_file, "--k", "2.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "weight 12.0"
    assert sorted(lines[1:]) == ["0 1 3.0", "2 3 4.0", "4 5 5.0"]


def test_run_default_k_is_the_minimizer(stream_file, capsys):
    assert main(["run", stream_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "weight 12.0"


def test_run_baseline(stream_file, capsys):
    assert main(["run", stream_file, "--algo", "baseline",
                 "--gamma", "1.0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "weight 12.0"


def test_run_verify_reports_zero_failures(stream_file, capsys):
    assert main(["run", stream_file, "--k", "2.0", "--verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verifier_failures 0"


def test_run_trace_writes_json_lines(stream_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["run", stream_file, "--k", "2.0", "--verify",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    records = [json.loads(ln) for ln in
               trace.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 3
    for i, rec in enumerate(records):
        assert rec["index"] == i
        assert set(rec) == {"index", "input", "S", "candidates", "decision"}
        assert rec["decision"]["inserted"] is True
        assert rec["decision"]["allocation_feasible"] is True


def test_run_usage_errors(stream_file, tmp_path):
    for path in (stream_file, str(tmp_path / "absent.txt")):
        # option rules are checked before FILE is opened
        assert main(["run", path, "--algo", "baseline", "--k", "2"]) == 1
        assert main(["run", path, "--algo", "baseline", "--verify"]) == 1
        assert main(["run", path, "--k", "0.5"]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1


def test_run_gamma_is_a_usage_error_for_the_shadow_matcher(
        stream_file, tmp_path, capsys):
    """--gamma sets the baseline's threshold; the shadow matcher must
    refuse it, before FILE or the trace file is opened."""
    assert main(["run", stream_file, "--gamma", "0.5"]) == 1
    trace = tmp_path / "trace.jsonl"
    assert main(["run", str(tmp_path / "absent.txt"), "--gamma", "0.5",
                 "--trace", str(trace)]) == 1
    assert not trace.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --gamma applies to the baseline matcher only"] * 2


@pytest.mark.parametrize("first,second", [
    (["run", "{f}", "--algo", "nope"], ["run", "{f}"]),
    (["run", "{f}", "--k", "2"], ["run", "{f}"]),
    (["compare", "{f}", "--format", "csv"], ["compare", "{f}", "--format", "json"]),
], ids=["usage-error-then-run", "k-then-default-k", "csv-then-json"])
def test_parser_keeps_no_state_between_calls(stream_file, capsys, first, second):
    """main parses with one parser built per process: after any call,
    the next must print what it prints as a fresh process's first call."""
    def fill(argv):
        return [a.format(f=stream_file) for a in argv]

    main(fill(first))
    capsys.readouterr()
    code = main(fill(second))
    got = capsys.readouterr()
    child = subprocess.run([sys.executable, "-m", "shadowmatch", *fill(second)],
                           capture_output=True, text=True, env=package_env())
    assert (code, got.out, got.err) == (child.returncode, child.stdout,
                                         child.stderr)


def test_run_missing_file_is_input_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.txt")]) == 2


def test_run_malformed_stream_is_input_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 3.0\n0 1 nope\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2


def test_run_duplicate_edge_handling(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("0 1 3.0\n1 0 4.0\n2 3 1.0\n", encoding="utf-8")
    assert main(["run", str(path), "--k", "2.0"]) == 2
    capsys.readouterr()
    assert main(["run", str(path), "--k", "2.0", "--skip-duplicates"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "weight 4.0"


def test_each_call_warns_to_the_stderr_of_its_time(tmp_path, capsys):
    """In-process callers that redirect stderr per call get each call's
    warnings, and repeated calls install no further log handler."""
    path = tmp_path / "dup.txt"
    path.write_text("0 1 3.0\n1 0 4.0\n2 3 1.0\n", encoding="utf-8")
    root = logging.getLogger()
    captures, handlers = [], []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            assert main(["run", str(path), "--skip-duplicates"]) == 0
        captures.append(buf.getvalue())
        handlers.append(list(root.handlers))
    capsys.readouterr()
    for text in captures:
        assert "skipping duplicate edge" in text
    assert handlers[0] == handlers[1]
    assert sum(isinstance(h, cli._StderrHandler) for h in root.handlers) == 1


def test_compare_table(stream_file, capsys):
    assert main(["compare", stream_file, "--k", "2.0"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["instance", "order", "algorithm"]
    assert sum(1 for ln in lines if ln.startswith("aggregate ")) == 3
    # every run on three disjoint edges is optimal
    assert "worst_ratio=1.000000" in out


def test_compare_csv(stream_file, capsys):
    assert main(["compare", stream_file, "--k", "2.0",
                 "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 4
    assert {row[2] for row in rows[1:]} == {"shadow", "baseline"}
    assert all(row[1] == "file" for row in rows[1:])


def test_compare_orders_multiplies_rows(stream_file, capsys):
    assert main(["compare", stream_file, "--k", "2.0", "--orders", "6",
                 "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1 + 6 * 3
    assert {row[1] for row in rows[1:]} == {f"perm{i}" for i in range(6)}


def test_compare_json_carries_aggregates(stream_file, capsys):
    assert main(["compare", stream_file, "--k", "2.0", "--verify",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"reports", "aggregates"}
    assert len(payload["reports"]) == 3
    assert all(r["verifier_failures"] == 0 for r in payload["reports"])


def test_compare_no_oracle(stream_file, capsys):
    assert main(["compare", stream_file, "--k", "2.0", "--no-oracle",
                 "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert all(row[5] == "" and row[6] == "" for row in rows[1:])


def test_compare_usage_errors(stream_file):
    assert main(["compare", stream_file, "--orders", "0"]) == 1
    assert main(["compare", stream_file, "--jobs", "0"]) == 1


def test_gen_round_trips_through_run(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert main(["gen", "--kind", "gnp-random", "--n", "8", "--seed", "7",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    stream = open_stream(str(out))
    edges = list(stream)
    assert stream.vertex_count == 8
    _, expect = generate(GeneratorSpec("gnp-random", n=8, p=0.5, seed=7))
    assert edges == list(expect)
    assert main(["run", str(out), "--k", "2.0", "--verify"]) == 0


def test_gen_stdout_and_determinism(capsys):
    argv = ["gen", "--kind", "complete", "--n", "5", "--seed", "3",
            "--weights", "integer-uniform", "--lo", "1", "--hi", "10"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    header = first.splitlines()[0].split()
    assert header == ["p", "5", "10"]


def test_gen_rejects_bad_spec():
    assert main(["gen", "--kind", "cycle", "--n", "2"]) == 1
    assert main(["gen", "--kind", "mystery"]) == 1


def test_bound_single_value(capsys):
    assert main(["bound", "--k", "2.0"]) == 0
    assert capsys.readouterr().out == "k 2.000000 ratio 5.750000\n"


def test_bound_grid_and_minimizer(capsys):
    assert main(["bound"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k      ratio"
    assert "2.000  5.750000" in lines
    last = lines[-1]
    assert last.startswith("minimum k* = 1.717")
    assert "ratio = 5.585492" in last


def test_bound_rejects_bad_k():
    assert main(["bound", "--k", "1.0"]) == 1


def test_bound_with_k_past_the_float_range_is_a_usage_error(capsys):
    assert main(["bound", "--k", "1e308"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_verify_near_tie_regression(tmp_path, capsys):
    """The float score of the last edge is +8.9e-16 while its exact score
    is not positive: it must not be inserted, so every insertion made
    certifies."""
    path = tmp_path / "tie.txt"
    path.write_text("1 2 2.9606534703948366\n3 4 1.0639643575038282\n"
                    "2 3 6.9110406495271235\n", encoding="utf-8")
    assert main(["run", str(path), "--verify"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verifier_failures 0"


@pytest.mark.parametrize("text,extra,code", [
    ("0 1 nan\n", [], 2),
    ("0 1 inf\n", [], 2),
    ("0 1 1e309\n", [], 2),
    ("0 1 -0.0\n", [], 2),
    ("p 3 3\n0 1 1.0\n1 2 2.0\n", [], 2),
    ("p 3 1\n0 1 1.0\n1 2 2.0\n", [], 2),
    ("p 3 3\n0 1 1.0\n0 1 2.0\n1 2 1.0\n", ["--skip-duplicates"], 0),
    ("p 3 2\n0 1 1.0\n0 1 2.0\n1 2 1.0\n", ["--skip-duplicates"], 2),
    ("0 1 1e-320\n1 2 3e-320\n2 3 1e-320\n", [], 0),
    (f"{2 ** 64} {2 ** 64 + 1} 1.5\n{2 ** 64 + 1} {2 ** 65} 4.0\n", [], 0),
    ("1 2 1.7e308\n3 4 1.7e308\n", [], 2),
], ids=["nan", "inf", "overflow", "negative-zero", "header-too-many",
        "header-too-few", "header-counts-skipped-duplicates",
        "header-without-skipped-duplicates", "subnormal", "ids-above-2**64",
        "weight-sum-overflow"])
def test_run_exit_codes_on_extreme_input(tmp_path, capsys, text, extra, code):
    path = tmp_path / "inst.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--verify", *extra]) == code
    if code == 0:
        assert capsys.readouterr().out.splitlines()[-1] == "verifier_failures 0"


@pytest.mark.parametrize("argv", [
    ["run"], ["run", "--algo", "baseline"], ["compare"],
    ["compare", "--no-oracle"]], ids=["run", "baseline", "compare",
                                      "compare-no-oracle"])
def test_weight_sum_past_the_float_range_is_an_input_error(
        tmp_path, capsys, argv):
    """Two finite weights whose matching weight overflows: exit 2 with
    one error line, not a traceback from the weight sum."""
    path = tmp_path / "huge.txt"
    path.write_text("1 2 1.7e308\n3 4 1.7e308\n", encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_run_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == "weight 0.0\n"


@pytest.mark.parametrize("fail_evicting", [False, True],
                         ids=["certified", "failures"])
def test_run_verify_output_is_the_same_with_and_without_trace(
        tmp_path, capsys, monkeypatch, fail_evicting):
    """Without --trace, --verify certifies from the untraced step; its
    stdout and exit code must equal the traced run's, failures included
    (forced here by rejecting every insertion that evicts an edge)."""
    path = tmp_path / "gnp.txt"
    assert main(["gen", "--kind", "gnp-random", "--n", "40", "--p", "0.5",
                 "--seed", "3", "--out", str(path)]) == 0
    if fail_evicting:
        real = cli.check_locally_k_exceeding

        def check(decision, k):
            result = real(decision, k)
            return dataclasses.replace(
                result, feasible=result.feasible and not decision.removed)
        monkeypatch.setattr(cli, "check_locally_k_exceeding", check)
    capsys.readouterr()
    code = main(["run", str(path), "--verify"])
    plain = capsys.readouterr().out
    traced_code = main(["run", str(path), "--verify",
                        "--trace", str(tmp_path / "trace.jsonl")])
    assert capsys.readouterr().out == plain
    assert code == traced_code == (3 if fail_evicting else 0)
    failures = int(plain.splitlines()[-1].split()[1])
    assert (failures > 0) == fail_evicting


@pytest.mark.parametrize("gamma", ["0", "1.0"])
def test_run_baseline_trace_has_one_candidate_per_edge(tmp_path, capsys, gamma):
    """`run --algo baseline --trace` writes a line per edge from the one
    step: no shadow in view, only the input edge as a candidate, and
    the decisions of the untraced `run_baseline`."""
    path = tmp_path / "gnp.txt"
    trace = tmp_path / "trace.jsonl"
    assert main(["gen", "--kind", "gnp-random", "--n", "30", "--p", "0.5",
                 "--seed", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--algo", "baseline", "--gamma", gamma,
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    records = [json.loads(ln) for ln in
               trace.read_text(encoding="utf-8").splitlines()]
    edges = list(open_stream(str(path)))
    decisions = []
    result = run_baseline(edges, float(gamma),
                          on_decision=lambda i, d, m: decisions.append(d))
    assert out.splitlines()[0] == f"weight {result.weight!r}"
    assert len(records) == len(edges) == len(decisions)

    def enc(es):
        return [[e.u, e.v, e.w] for e in es]

    for i, (rec, d) in enumerate(zip(records, decisions)):
        assert rec["index"] == i
        assert rec["S"]["a1g1"] is None and rec["S"]["a2g2"] is None
        assert [c["edges"] for c in rec["candidates"]] == [rec["decision"]["A"]]
        assert rec["decision"] == {"A": enc(d.chosen), "inserted": d.inserted,
                                   "r": d.gain, "removed": enc(d.removed)}
