"""Command line behavior: outputs, formats, exit codes."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import logging
import os
import re
import subprocess
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import package_env, reference_event, reference_trace_record
from shadowmatch import cli
from shadowmatch.baseline import BaselineMatcher, run_baseline
from shadowmatch.bound import K_STAR
from shadowmatch.cli import main
from shadowmatch.generators import GeneratorSpec, generate
from shadowmatch.graph import open_stream
from shadowmatch.harness import CSV_COLUMNS
from shadowmatch.shadow import ShadowMatcher, drive, read_trace, trace_header

GOOD = "p 6 3\n0 1 3.0\n2 3 4.0\n4 5 5.0\n"


@contextlib.contextmanager
def _piped(data: bytes):
    """Yield a path, `/dev/fd/N`, that reads `data` through a pipe which
    a thread fills; the pipe is closed on exit."""
    r, w = os.pipe()

    def feed():
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(w, view):]
        except BrokenPipeError:
            pass  # the reader stopped at an error and the pipe is closed
        finally:
            os.close(w)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join(timeout=10)
        assert not writer.is_alive()


def _main_on(argv: list[str]) -> tuple[int, str, str]:
    """Run `main(argv)` and return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _from_file_and_pipe(path, data: bytes, command: str, *options: str):
    """`_main_on` for `command` reading `data` from the file `path`, then
    through a pipe; the stream's name in stdout (compare's instance id)
    is replaced by STREAM, so the two outcomes compare byte for byte."""
    path.write_bytes(data)
    outcomes = []
    with _piped(data) as pipe:
        for source in (str(path), pipe):
            code, out, err = _main_on([command, source, *options])
            outcomes.append((code, out.replace(source, "STREAM"), err))
    return outcomes


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
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"trace": 4, "threshold": 2.0,
                                    "parks": True}
    records = [reference_trace_record(reference_event(ev, 2.0), f)
               for ev, f in read_trace(lines)]
    assert len(records) == 3
    for i, rec in enumerate(records):
        assert rec["index"] == i
        assert set(rec) == {"index", "input", "S", "candidates", "decision"}
        assert rec["decision"]["inserted"] is True
        assert rec["decision"]["allocation_feasible"] is True


def test_run_trace_keeps_the_steps_before_an_input_error(tmp_path, capsys):
    """A stream that fails at a later line, on a malformed token or on a
    byte that is not UTF-8, exits 2 and leaves the header and one line
    per step before the error, which read back."""
    path = tmp_path / "bad.txt"
    trace = tmp_path / "trace.jsonl"
    for last in (b"4 5 nope\n", b"4 5 \xff\n"):
        path.write_bytes(b"0 1 3.0\n2 3 4.0\n1 2 9.0\n" + last)
        assert main(["run", str(path), "--verify", "--trace", str(trace)]) == 2
        assert capsys.readouterr().err.startswith("error: line 4: ")
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines[0] == trace_header(ShadowMatcher(K_STAR))
        events = [ev for ev, _ in read_trace(lines)]
        assert [ev.index for ev in events] == [0, 1, 2]
        assert events[2].decision.removed == ((0, 1, 3.0), (2, 3, 4.0))


def test_run_trace_of_an_empty_stream_is_its_header(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("p 4 0\n", encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    assert main(["run", str(path), "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "weight 0.0\n"
    header = trace_header(ShadowMatcher(K_STAR))
    assert trace.read_text(encoding="utf-8") == header + "\n"
    assert list(read_trace([header])) == []


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


def test_run_closes_file_when_the_trace_file_cannot_be_opened(
        stream_file, tmp_path, capsys):
    """FILE is opened before the trace file, so that a bad FILE neither
    creates nor truncates the trace; when the trace file then cannot be
    opened, the run exits 2 and FILE is closed, not left to leak."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["run", stream_file, "--trace",
                     str(tmp_path / "missing" / "t.jsonl")]) == 2
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    trace = tmp_path / "trace.jsonl"
    assert main(["run", str(tmp_path / "absent.txt"),
                 "--trace", str(trace)]) == 2
    assert not trace.exists()
    bad = tmp_path / "bad.txt"
    bad.write_text("p 3\n1 2 1.0\n", encoding="utf-8")
    trace.write_text("kept\n", encoding="utf-8")
    assert main(["run", str(bad), "--trace", str(trace)]) == 2
    assert trace.read_text(encoding="utf-8") == "kept\n"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error: ") for line in err)


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
    assert main(["compare", stream_file, "--oracle-limit", "-1"]) == 1


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
    (b"p 3 2\n1 2 1.0\n2 3 \xff\xfe\n", [], 2),
], ids=["nan", "inf", "overflow", "negative-zero", "header-too-many",
        "header-too-few", "header-counts-skipped-duplicates",
        "header-without-skipped-duplicates", "subnormal", "ids-above-2**64",
        "weight-sum-overflow", "not-utf-8"])
def test_run_exit_codes_on_extreme_input(tmp_path, capsys, text, extra, code):
    """Each stream exits with its documented code; `text` is written as
    UTF-8, or as it is when given as bytes."""
    path = tmp_path / "inst.txt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
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


# A long stream whose last line holds the first bad byte, far past the
# first chunk the text decoder reads.
_LONG = (b"p 5000 5000\n"
         + b"".join(b"%d %d 1.5\n" % (i, i + 1) for i in range(4999))
         + b"4999 5000 2.\xff\n")


@pytest.mark.parametrize("command", ["run", "compare"])
def test_stream_that_is_not_utf8_is_an_input_error(tmp_path, command):
    """Bytes that do not decode as UTF-8 are bad input: exit 2 with one
    error line, for both commands that read a stream, naming the line
    and the offset within it of the first bad byte.  The first fault in
    line order is named, and a pipe prints what the file prints."""
    path = tmp_path / "latin1.txt"
    for data, want in [
            (b"p 3 2\n1 2 1.0\n2 3 \xff\xfe\n",
             "line 3: not UTF-8 at byte 4 of the line (0xff): invalid start byte"),
            # a lone CR ends a line, as it does for the parser
            (b"p 3 2\r1 2 1.0\r\n2 3 \xe2\x82A\n",
             "line 3: not UTF-8 at byte 4 of the line (0xe2): "
             "invalid continuation byte"),
            (_LONG, "line 5001: not UTF-8 at byte 12 of the line (0xff): "
                    "invalid start byte"),
            # a malformed line before a bad byte is named first
            (b"p 3 2\n1 2 nope\n2 3 \xff\n",
             "line 2: weight must be a real number, got 'nope'"),
            (b"p 3 2\n# caf\xe9\n1 2 1.0\n2 3 2.0\n",
             "line 2: not UTF-8 at byte 5 of the line (0xe9): "
             "invalid continuation byte")]:
        outcomes = _from_file_and_pipe(path, data, command)
        assert outcomes == [(2, "", f"error: {want}\n")] * 2


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
            return real(decision, k) and not decision.removed
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
    step: no shadow in view, only the input edge as a candidate, the
    decisions a traced `drive` of the library's baseline reads, and
    the weight of the untraced `run_baseline`."""
    path = tmp_path / "gnp.txt"
    trace = tmp_path / "trace.jsonl"
    assert main(["gen", "--kind", "gnp-random", "--n", "30", "--p", "0.5",
                 "--seed", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--algo", "baseline", "--gamma", gamma,
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"trace": 4, "threshold": 1.0 + float(gamma),
                                    "parks": False}
    records = [reference_trace_record(reference_event(ev, 1.0 + float(gamma)), f)
               for ev, f in read_trace(lines)]
    edges = list(open_stream(str(path)))
    events = []
    traced = drive(BaselineMatcher(float(gamma)), edges, trace=events.append)
    decisions = [ev.decision for ev in events]
    result = run_baseline(edges, float(gamma))
    assert out.splitlines()[0] == f"weight {result.weight!r}"
    assert traced == result
    assert len(records) == len(edges) == len(decisions)

    def enc(es):
        return [[e.u, e.v, e.w] for e in es]

    for i, (rec, d) in enumerate(zip(records, decisions)):
        assert rec["index"] == i
        assert rec["S"]["a1g1"] is None and rec["S"]["a2g2"] is None
        assert [c["edges"] for c in rec["candidates"]] == [rec["decision"]["A"]]
        assert rec["decision"] == {"A": enc(d.chosen), "inserted": d.inserted,
                                   "r": d.gain, "removed": enc(d.removed)}


# Pieces of stream text, well formed and not, that the fuzz below joins
# with random bytes: headers, edges, bad tokens, comments, every line
# ending, and bytes that are not UTF-8 (a lone continuation, a cut-off
# sequence, an encoded surrogate) next to ones that are.
_PIECES = (b"p 4 3", b"p 3", b"0 1 1.5", b"1 2 2.5", b"3 2 0.5", b"1 0 4.0",
           b"2 2 1.0", b"1.7e308", b"nan", b"-1", b"x", b"#", b" ", b"\t",
           b"\n", b"\n", b"\r\n", b"\r", b"\xff", b"\xe2\x82", b"\xc3\xa9",
           b"\xed\xa0\x80")
_STREAM_BYTES = st.lists(st.one_of(st.sampled_from(_PIECES),
                                   st.binary(max_size=2)),
                         max_size=24).map(b"".join)
_NAMED = re.compile(r"error: (line \d+: |header declares \d+ edges, |"
                    r"a result leaves the float range: )")


@settings(max_examples=200, deadline=None)
@given(data=_STREAM_BYTES)
def test_any_bytes_exit_0_or_2_alike_from_a_file_and_a_pipe(
        tmp_path_factory, data):
    """Any bytes, read by `run`, `run --verify` or `compare`, exit 0 or
    2, never with a traceback.  An exit of 2 prints one `error: ` line
    naming a line, the header's edge count or the float range.  A file
    and a pipe give the same exit code, stdout and stderr (compare's as
    CSV, since its table pads to the width of the stream's name)."""
    path = tmp_path_factory.getbasetemp() / "fuzz-stream.txt"
    for argv in (["run"], ["run", "--verify"],
                 ["compare", "--format", "csv"]):
        from_file, from_pipe = _from_file_and_pipe(path, data, *argv)
        assert from_file == from_pipe
        code, _, err = from_file
        assert code in (0, 2)
        if code == 2:
            assert err.count("\n") == 1 and _NAMED.match(err), err
