"""Golden outputs: CLI bytes for fixed inputs must not drift.

`tests/golden/` holds generated instances and the exact bytes the CLI
printed or wrote for them.  Every case here reruns one command and
compares its output byte for byte.  Commands run with the fixture
directory as the working directory and relative input paths, because
`compare` prints the path it was given as the instance id.

After a deliberate output change, recapture with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why the bytes moved.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import os
import sys
from pathlib import Path

import pytest

from shadowmatch.cli import main

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

# (golden stdout file, argv, golden trace file or None)
RUNS = [
    *((f"{name[:-4]}.run.out", ["run", name, "--verify", "--trace", "TRACE"],
       f"{name[:-4]}.trace.jsonl.gz") for name in INSTANCES),
    ("gnp.baseline.out", ["run", "gnp.txt", "--algo", "baseline"], None),
    *((f"ties.compare.{fmt}", ["compare", "ties.txt", "--orders", "20",
                               "--verify", "--format", fmt], None)
      for fmt in ("csv", "json", "table")),
]


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


@pytest.mark.parametrize("golden,argv,trace_golden", RUNS,
                         ids=[r[0] for r in RUNS])
def test_cli_bytes(golden, argv, trace_golden, tmp_path):
    code, out, trace = _run(argv, tmp_path / "trace.jsonl")
    assert code == 0
    assert out == (GOLDEN / golden).read_bytes()
    if trace_golden is not None:
        assert trace == gzip.decompress((GOLDEN / trace_golden).read_bytes())


def test_compare_jobs_matches_serial():
    code, out, _ = _run(["compare", "ties.txt", "--orders", "20", "--verify",
                         "--format", "json", "--jobs", "2"])
    assert code == 0
    assert out == (GOLDEN / "ties.compare.json").read_bytes()


def capture() -> None:
    """Rewrite every golden file from the current program."""
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
            (GOLDEN / trace_golden).write_bytes(
                gzip.compress(trace, mtime=0))
    scratch.unlink(missing_ok=True)


if __name__ == "__main__":
    capture()
    sys.exit(0)
