"""The exhaustive check scripts still load and agree on one small case each.

The scripts run in full only as CI steps of their own (each takes tens of
seconds), so a rename of a private name they call would otherwise show
there alone.  Loading them with ``runpy`` runs no ``main``.
"""

import runpy
from collections import Counter
from itertools import combinations
from pathlib import Path

from wordrep.constructions import complement_path_graph
from wordrep.graphs import CoBipartitePartition, Graph
from wordrep.orientations import count_acyclic_orientations

TESTS = Path(__file__).resolve().parent


def test_mirror_sweep_check_agrees_on_small_cases():
    differs = runpy.run_path(str(TESTS / "check_mirror_sweep.py"))["differs"]
    a, b = ("a1", "a2", "a3"), ("b1", "b2", "b3", "b4")
    cross = [(x, y) for x in a for y in b][::2]
    pattern = Graph.from_edges(a + b, list(combinations(a, 2)) + list(combinations(b, 2)) + cross)
    assert not differs("co-P(2)", *complement_path_graph(2))
    assert not differs("3+4 pattern", pattern, CoBipartitePartition(a, b))
    assert not differs("3+4 pattern, sampled", pattern, CoBipartitePartition(a, b),
                       count_acyclic_orientations(pattern))


def test_representation_number_check_agrees_on_small_cases():
    differs = runpy.run_path(str(TESTS / "check_representation_number.py"))["differs"]
    numbers = Counter()
    for n in (2, 3):
        assert not differs(complement_path_graph(n)[0], numbers)
    assert sum(numbers.values()) == 2
