"""What ``import wordrep`` and each command load, and the package's exported names.

Each command runs in a fresh interpreter, which reports the modules that
``from wordrep import cli`` and the command added to ``sys.modules``; the
difference holds whatever the interpreter imported at start-up.  The
tests need no pytest, so an interpreter without it runs them as a script:

    python tests/test_imports.py
"""

import contextlib
import importlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The package's exported names by home module, as before the names loaded lazily.
EXPORTS = {
    "graphs": [
        "BipartiteSpec", "CoBipartitePartition", "GeneralizedCrownParams", "Graph",
        "GraphError", "cobipartite_from_bipartite", "cycle_bipartite",
        "format_graph_text", "generalized_crown", "named_witness", "parse_graph_text",
        "path_bipartite",
    ],
    "words": [
        "VerifyReport", "Word", "WordError", "alternates", "final_permutation",
        "initial_permutation", "is_uniform", "prepend_initial", "represents",
        "restrict", "rotate_uniform",
    ],
    "constructions": [
        "NeighborhoodProfile", "NeighborhoodProfile2", "NeighborhoodProfile3",
        "word_cobip", "word_complement_even_cycle", "word_complement_path",
        "word_generalized_crown",
    ],
    "orientations": [
        "CapExceededError", "Orientation", "OrientationError", "ShortcutWitness",
        "bounded_representation_number", "enumerate_acyclic_orientations",
        "find_noncomparability_witness", "find_semi_transitive_orientation",
        "find_shortcut", "find_uniform_word", "is_acyclic", "is_comparability",
        "is_semi_transitive", "is_word_representable", "representable_via_dominant",
    ],
    "cobipartite": [
        "CharacterizationReport", "CliqueOrder", "VertexTypeInfo", "classify_vertex",
        "clique_order", "is_semi_transitive_cobip", "sweep_orientations",
    ],
}

CORE = {"wordrep", "wordrep.cli", "wordrep.graphs", "wordrep.words", "wordrep.orientations"}
# Each command's pinned additions among the wordrep modules and hashlib.
COMMAND_LOADS = {
    "representable": CORE,
    "verify": CORE,
    "characterize": CORE | {"wordrep.cobipartite"},
    "construct": CORE | {"wordrep.constructions"},
    "catalog": CORE | {"wordrep.constructions", "hashlib"},
}

COMMAND_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from wordrep import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

PACKAGE_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import wordrep
loaded = sorted(m for m in set(sys.modules) - before if m.startswith("wordrep."))
modules = sys.argv[2:]
resolved = [getattr(wordrep, m) is sys.modules.get("wordrep." + m) for m in modules]
print(json.dumps([loaded, resolved]))
"""


def probe(code, *argv):
    run = subprocess.run([sys.executable, "-c", code, str(SRC), *argv],
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(run.stdout)


def command_lines(tmp_path):
    """One command line per command, on files written into ``tmp_path``."""
    from wordrep.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        main(["catalog", "--out", str(tmp_path), "complement-path", "--n", "2"])
        main(["construct", "complement-path", "--n", "2", "--out", str(tmp_path / "w.txt")])
    graph = str(tmp_path / "co-path-n2.graph")
    return {
        "representable": ["representable", graph],
        "verify": ["verify", graph, str(tmp_path / "w.txt")],
        "characterize": ["characterize", graph],
        "construct": ["construct", "crown", "--n", "3", "--k", "1"],
        "catalog": ["catalog", "--out", str(tmp_path / "cat"), "t1bar"],
    }


def test_each_command_imports_only_what_it_runs(tmp_path):
    wrong = {}
    for command, argv in command_lines(tmp_path).items():
        code, added = probe(COMMAND_PROBE, *argv)
        loads = {m for m in added if m == "hashlib" or m.split(".")[0] == "wordrep"}
        if code != 0 or loads != COMMAND_LOADS[command]:
            wrong[command] = (code, sorted(loads))
    assert not wrong, wrong


def test_exported_names_are_their_home_modules_objects():
    import wordrep

    for module, names in EXPORTS.items():
        home = importlib.import_module(f"wordrep.{module}")
        for name in names:
            assert getattr(wordrep, name) is getattr(home, name), name
    listed = set(dir(wordrep))
    missing = [n for names in EXPORTS.values() for n in names if n not in listed]
    assert not missing and {*EXPORTS, "__version__"} <= listed, missing
    assert wordrep.__version__ == "0.1.0"


def test_bare_import_loads_no_submodule_and_resolves_each():
    loaded, resolved = probe(PACKAGE_PROBE, *EXPORTS)
    assert loaded == [] and resolved == [True] * len(EXPORTS), (loaded, resolved)


def test_unknown_name_raises_attribute_error_naming_it():
    import wordrep

    try:
        wordrep.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("wordrep.no_such_name resolved")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        test_each_command_imports_only_what_it_runs(Path(tmp))
    test_exported_names_are_their_home_modules_objects()
    test_bare_import_loads_no_submodule_and_resolves_each()
    test_unknown_name_raises_attribute_error_naming_it()
    print("4 passed")
