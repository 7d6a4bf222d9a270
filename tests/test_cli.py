"""Command line behavior: outputs, formats, exit codes."""

from __future__ import annotations

import csv
import io
import json

import pytest

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


def test_run_usage_errors(stream_file):
    assert main(["run", stream_file, "--algo", "baseline", "--k", "2"]) == 1
    assert main(["run", stream_file, "--algo", "baseline", "--verify"]) == 1
    assert main(["run", stream_file, "--k", "0.5"]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1


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
], ids=["nan", "inf", "overflow", "negative-zero", "header-too-many",
        "header-too-few", "header-counts-skipped-duplicates",
        "header-without-skipped-duplicates", "subnormal", "ids-above-2**64"])
def test_run_exit_codes_on_extreme_input(tmp_path, capsys, text, extra, code):
    path = tmp_path / "inst.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--verify", *extra]) == code
    if code == 0:
        assert capsys.readouterr().out.splitlines()[-1] == "verifier_failures 0"


def test_run_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == "weight 0.0\n"
