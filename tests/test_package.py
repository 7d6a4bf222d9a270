"""The package's public surface: the names `shadowmatch` exports, and
README's library examples."""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shutil
from pathlib import Path

import shadowmatch
from shadowmatch import open_stream, optimal_k, run_stream


def test_every_exported_name_resolves_and_is_unique():
    names = shadowmatch.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(shadowmatch, name, None) is not None, name


def test_every_public_import_is_exported():
    """`__init__` imports exactly the names it exports: a public name it
    imports but leaves out of `__all__`, or one it exports without
    importing, fails here."""
    tree = ast.parse(Path(shadowmatch.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public == set(shadowmatch.__all__)


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch):
    """README's two "Library use" blocks run as written, in order and in
    one namespace, from a directory holding `instance.txt`, a copy of
    `tests/golden/gnp.txt`, with `edges` its edges.  They print the
    weight and matching of the run, then its stored-edge peak, then
    each step's index, whether it inserted and its verdict (none)."""
    root = Path(__file__).parent
    readme = (root.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    golden = root / "golden" / "gnp.txt"
    shutil.copy(golden, tmp_path / "instance.txt")
    monkeypatch.chdir(tmp_path)
    edges = list(open_stream(golden))
    namespace = {"edges": edges}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    events = []
    result = run_stream(edges, optimal_k()[0], trace=events.append)
    assert out.getvalue().splitlines() == [
        f"{result.weight} {result.matching}",
        f"{result.weight} {result.metrics.max_stored_edges}",
        *(f"{ev.index} {ev.inserted} None" for ev in events)]
