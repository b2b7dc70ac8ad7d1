"""Check bounded_representation_number against the literal loop over every
labelled 6-vertex graph.

    PYTHONPATH=src python tests/check_representation_number.py

For each of the 32,768 graphs on v0..v5, the guided number with max_k 3
must equal the least k <= 3 for which the unguided ``find_uniform_word(g,
k)`` finds a word.  Prints any graph that differs and a tally of the
numbers, and exits 1 on a difference.  Pytest does not collect this file;
it takes about 20 s.
"""

import sys
from collections import Counter
from itertools import combinations

from wordrep.graphs import Graph
from wordrep.orientations import bounded_representation_number, find_uniform_word


def differs(g: Graph, numbers: Counter) -> bool:
    """Whether the guided number of g differs from the literal one, which
    is tallied in ``numbers``."""
    literal = next((k for k in (1, 2, 3) if find_uniform_word(g, k) is not None), None)
    guided = bounded_representation_number(g, 3)
    numbers[str(literal)] += 1
    if guided != literal:
        print(f"edges {g.edges()}: guided {guided}, literal {literal}")
    return guided != literal


def main() -> int:
    labels = [f"v{i}" for i in range(6)]
    pairs = list(combinations(labels, 2))
    numbers = Counter()
    differences = 0
    for bits in range(1 << len(pairs)):
        g = Graph.from_edges(labels, [e for t, e in enumerate(pairs) if bits >> t & 1])
        differences += differs(g, numbers)
    print(f"{1 << len(pairs)} graphs, representation numbers {dict(sorted(numbers.items()))}, "
          f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
