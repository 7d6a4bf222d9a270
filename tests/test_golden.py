"""Golden outputs: CLI bytes for fixed inputs must not drift.

`tests/golden/` holds generated instances, two hand-written streams
(`lone_shadow.txt`, `ascending.txt`), and the exact bytes the CLI
printed or wrote for them.  Every case here reruns one command and
compares its output byte for byte.  Commands run with the fixture
directory as the working directory and relative input paths, because
`compare` prints the path it was given as the instance id.

Traces are pinned twice.  `*.trace-v4.jsonl.gz` holds the trace bytes
the CLI writes; `*.trace.jsonl.gz` holds the same runs in the first
trace format, one full record per line, and is never rewritten: every
version 4 trace must read back, through `read_trace` and the test-side
renderer `reference_trace_record`, as those lines, scores and all,
though its lines spell no score.

After a deliberate output change, recapture with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why the bytes moved.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import sys
from pathlib import Path

import pytest

from helpers import reference_trace_record
from shadowmatch import shadow as shadow_module
from shadowmatch.cli import main
from shadowmatch.shadow import read_trace, trace_to_dict

GOLDEN = Path(__file__).parent / "golden"

# (input file, gen arguments)
INSTANCES = {
    "gadget.txt": ["--kind", "shadow-gadget"],
    "chain.txt": ["--kind", "geometric-chain", "--n", "14", "--q", "1.6"],
    "gnp.txt": ["--kind", "gnp-random", "--n", "50", "--p", "0.9",
                "--seed", "1"],
    "ties.txt": ["--kind", "gnp-random", "--n", "10", "--p", "0.6",
                 "--weights", "integer-uniform", "--lo", "1", "--hi", "6",
                 "--seed", "2"],
}

# (golden stdout file, argv, golden record trace file or None)
RUNS = [
    *((f"{name[:-4]}.run.out", ["run", name, "--verify", "--trace", "TRACE"],
       f"{name[:-4]}.trace.jsonl.gz") for name in INSTANCES),
    # Hand-written, so not in INSTANCES: its last step inserts a lone
    # shadow, a set without the input edge, traced and through the
    # untraced step's reject bound.
    ("lone_shadow.run.out", ["run", "lone_shadow.txt", "--verify",
                             "--trace", "TRACE"], "lone_shadow.trace.jsonl.gz"),
    ("lone_shadow.run.out", ["run", "lone_shadow.txt", "--verify"], None),
    # Hand-written too: ascending weights, so a third of the steps insert
    # a parked shadow with the input edge and settle near ties.
    ("ascending.run.out", ["run", "ascending.txt", "--verify", "--trace",
                           "TRACE"], "ascending.trace.jsonl.gz"),
    ("gnp.baseline.out", ["run", "gnp.txt", "--algo", "baseline"], None),
    ("gnp.baseline.out", ["run", "gnp.txt", "--algo", "baseline",
                          "--trace", "TRACE"], "gnp.baseline.trace.jsonl.gz"),
    *((f"ties.compare.{fmt}", ["compare", "ties.txt", "--orders", "20",
                               "--verify", "--format", fmt], None)
      for fmt in ("csv", "json", "table")),
]


def _v4(trace_golden: str) -> str:
    """The file pinning the trace bytes of the run whose records
    `trace_golden` holds."""
    return trace_golden.replace(".trace.", ".trace-v4.")


def _run(argv: list[str], trace: Path | None = None
         ) -> tuple[int, bytes, bytes | None]:
    """Run the CLI in GOLDEN, writing any trace to `trace`; returns
    (exit code, stdout, trace bytes or None)."""
    argv = [str(trace) if a == "TRACE" else a for a in argv]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = trace.read_bytes() if str(trace) in argv else None
    return code, out.getvalue().encode("utf-8"), written


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_gen_bytes(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", *INSTANCES[name]]) == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / name).read_bytes()


# Cases are named by their golden stdout file; a traced run that shares
# it with an untraced one is named by its golden trace file.
_UNTRACED = {golden for golden, _, trace in RUNS if trace is None}
CASE_IDS = [trace if trace and golden in _UNTRACED else golden
            for golden, _, trace in RUNS]


@pytest.mark.parametrize("golden,argv,trace_golden", RUNS, ids=CASE_IDS)
def test_cli_bytes(golden, argv, trace_golden, tmp_path):
    code, out, trace = _run(argv, tmp_path / "trace.jsonl")
    assert code == 0
    assert out == (GOLDEN / golden).read_bytes()
    if trace_golden is not None:
        assert trace == gzip.decompress((GOLDEN / _v4(trace_golden)).read_bytes())


@pytest.mark.parametrize("trace_golden", sorted(
    {trace for _, _, trace in RUNS if trace is not None}))
def test_traces_read_back_as_their_records(trace_golden, monkeypatch):
    """Each pinned trace, read back and rendered with sorted keys by the
    test-side renderer and by `trace_to_dict`, is the record golden of
    the same run, line for line.  A view with no shadow in it takes its
    one candidate, the input edge, from the step's decision, so
    rendering ranks no such view: a spy on `_rank` sees none."""
    lone_ranked = []
    rank = shadow_module._rank

    def counted(t, e, a, b, s1, c1, s2, c2):
        if s1 is None and s2 is None:
            lone_ranked.append(e)
        return rank(t, e, a, b, s1, c1, s2, c2)

    monkeypatch.setattr(shadow_module, "_rank", counted)
    lines = gzip.decompress((GOLDEN / _v4(trace_golden)).read_bytes())
    records = gzip.decompress((GOLDEN / trace_golden).read_bytes())
    events = list(read_trace(lines.decode("utf-8").splitlines()))
    for render in (reference_trace_record, trace_to_dict):
        got = [json.dumps(render(event, verdict), sort_keys=True)
               for event, verdict in events]
        assert got == records.decode("utf-8").splitlines()
    assert any(event.neighborhood.a1g1 is event.neighborhood.a2g2 is None
               for event, _ in events)
    assert lone_ranked == []


def _trace_lines(name: str) -> list[str]:
    return gzip.decompress((GOLDEN / f"{name}.trace-v4.jsonl.gz")
                           .read_bytes()).decode("utf-8").splitlines()


@pytest.mark.parametrize("change", ["rejection", "insertion", "moved",
                                    "past-last", "swapped"])
def test_read_trace_names_a_line_the_ranking_disowns(change):
    """read_trace replays each line's step and raises ValueError naming
    the first line the step does not write: a rejection that claims set
    0, an insertion that claims none, an insertion of several candidate
    sets whose position is moved, an insertion whose position is one
    past its last candidate set and two swapped rejections (lines 23
    and 24 of the gnp trace)."""
    if change == "swapped":
        lines = _trace_lines("gnp")
        lines[22], lines[23] = lines[23], lines[22]
        assert json.loads(lines[22])[2] is json.loads(lines[23])[2] is None
        with pytest.raises(ValueError, match=r"^trace line 23: "):
            list(read_trace(lines))
        return
    lines = _trace_lines("ascending")
    events = [event for event, _ in read_trace(lines)]
    i = next(i for i, event in enumerate(events)
             if event.inserted == (change != "rejection")
             and (change not in ("moved", "past-last")
                  or len(event.candidates) > 1))
    items = json.loads(lines[i + 1])
    if change == "rejection":
        assert items[2] is None
        items[2] = 0
    elif change == "insertion":
        items[2] = None
    elif change == "moved":
        items[2] = (items[2] + 1) % len(events[i].candidates)
    else:
        items[2] = len(events[i].candidates)
    lines[i + 1] = json.dumps(items, separators=(",", ":"))
    with pytest.raises(ValueError, match=rf"^trace line {i + 2}: "):
        list(read_trace(lines))


def test_traces_repeat_in_one_process(tmp_path):
    """Nothing a traced run leaves behind in the process changes the
    bytes of the next one."""
    for golden, argv, trace_golden in RUNS:
        if trace_golden is not None:
            first = _run(argv, tmp_path / "first.jsonl")
            assert _run(argv, tmp_path / "second.jsonl") == first


def test_compare_jobs_matches_serial():
    code, out, _ = _run(["compare", "ties.txt", "--orders", "20", "--verify",
                         "--format", "json", "--jobs", "2"])
    assert code == 0
    assert out == (GOLDEN / "ties.compare.json").read_bytes()


def capture() -> None:
    """Rewrite every golden file from the current program, but for the
    record traces (`*.trace.jsonl.gz`), which stay as they are."""
    GOLDEN.mkdir(exist_ok=True)
    for name, args in INSTANCES.items():
        with open(GOLDEN / name, "w", encoding="utf-8") as fh:
            with contextlib.redirect_stdout(fh):
                assert main(["gen", *args]) == 0
    scratch = GOLDEN / "trace.tmp"
    for golden, argv, trace_golden in RUNS:
        scratch.unlink(missing_ok=True)
        code, out, trace = _run(argv, scratch)
        assert code == 0, (argv, code)
        (GOLDEN / golden).write_bytes(out)
        if trace_golden is not None:
            (GOLDEN / _v4(trace_golden)).write_bytes(
                gzip.compress(trace, mtime=0))
    scratch.unlink(missing_ok=True)


if __name__ == "__main__":
    capture()
    sys.exit(0)
