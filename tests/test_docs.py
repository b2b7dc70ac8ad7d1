"""The docs point at real code.

Each exactness argument is stated once, in the docstring of the function
that relies on it, and other places point there.  These tests keep the
pointers in the package's docstrings and comments, and the README's proof
table, from naming code or tests that no longer exist, and run the entry
points the README documents.
"""

import ast
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wordrep"
POINTER = re.compile(r"``([A-Za-z_]\w*(?:\.\w+)?)``")


def defined_names():
    """Each module's top-level names, and each class's members, by name."""
    scopes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = scopes.setdefault(path.stem, set())
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                module.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                module.update(t.id for t in targets if isinstance(t, ast.Name))
            if isinstance(node, ast.ClassDef):
                members = scopes.setdefault(node.name, set())
                for sub in ast.walk(node):
                    if isinstance(sub, ast.FunctionDef):
                        members.add(sub.name)
                    elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        members.add(sub.target.id)
                    elif (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                          and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        members.add(sub.attr)
    return scopes


def docs_and_comments(text):
    """The docstrings and comments of one module's source."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            yield token.string


def stale_pointers(sources, scopes):
    """The ``_name`` and ``Name.attr`` pointers that name nothing defined."""
    everything = set().union(*scopes.values())
    stale = []
    for name, text in sources:
        for chunk in docs_and_comments(text):
            for ref in POINTER.findall(chunk):
                owner, _, attr = ref.rpartition(".")
                if owner:
                    found = attr in scopes.get(owner, ())
                elif ref.startswith("_"):
                    found = ref in everything
                else:
                    continue
                if not found:
                    stale.append((name, ref))
    return stale


def proof_table(readme):
    """The rows of the README's proof table, as (pruning, home, test)."""
    section = readme.split("## Prunings and their proofs", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")]
    return rows[2:]  # past the header and its rule


def missing_in_table(rows):
    """Table rows whose home is not a documented function of the package, or
    whose test is not defined in its file under tests/."""
    missing = []
    for pruning, home, test in rows:
        module, _, path = home.partition(".")
        target = importlib.import_module(f"wordrep.{module}")
        for part in path.split("."):
            target = getattr(target, part, None)
        if not callable(target) or not target.__doc__:
            missing.append(home)
        file, *names = test.split("::")
        source = ROOT / "tests" / file
        scope, node = ast.parse(source.read_text()).body if source.is_file() else [], None
        for part in names:
            node = next((n for n in scope if getattr(n, "name", None) == part), None)
            scope = [] if node is None else node.body
        if node is None:
            missing.append(test)
    return missing


def test_docstring_pointers_name_defined_code():
    scopes = defined_names()
    sources = [(path.name, path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    assert stale_pointers(sources, scopes) == []
    # The check itself: a pointer to a missing name or member is caught.
    broken = ('"""See ``_no_such_helper`` and ``ShortcutSearcher.no_such``;\n'
              '``ShortcutSearcher.prefix_free`` and ``_failed_stage`` exist."""\n'
              "# and ``words._no_such_step``\n")
    assert stale_pointers([("broken.py", broken)], scopes) == [
        ("broken.py", "_no_such_helper"), ("broken.py", "ShortcutSearcher.no_such"),
        ("broken.py", "words._no_such_step")]


def test_readme_proof_table_names_real_code_and_tests():
    rows = proof_table((ROOT / "README.md").read_text())
    assert len(rows) >= 15 and all(len(row) == 3 for row in rows)
    assert missing_in_table(rows) == []
    # The check itself: a row naming a missing function or test is caught.
    pruning, home, test = rows[0]
    assert missing_in_table([(pruning, home + "_gone", test),
                             (pruning, home, test + "_gone"),
                             (pruning, home, "test_no_such_file.py::test_x")]) == [
        home + "_gone", test + "_gone", "test_no_such_file.py::test_x"]


def test_readme_entry_points_run(tmp_path):
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Library quick start", 1)[1]
    exec(quick_start.split("```python\n", 1)[1].split("```", 1)[0], {})
    # The module form of the command line, as the README gives it.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "wordrep.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)

    done = cli("catalog", "--out", "cat", "t1bar")
    assert done.returncode == 0, done.stderr
    manifest = json.loads((tmp_path / "cat" / "manifest.json").read_text())
    assert [entry["name"] for entry in manifest["files"]] == ["t1bar.graph"]
    done = cli("representable", "cat/t1bar.graph")
    assert done.returncode == 1 and json.loads(done.stdout)["representable"] is False
    # The installed script's target.
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["wordrep"]
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))
