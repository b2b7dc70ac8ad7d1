"""Check the full characterize sweep, which walks one mirror half and
doubles its count, against the literal loop over the whole walk.

    PYTHONPATH=src python tests/check_mirror_sweep.py

For each of the 4,096 labelled cross patterns of a 3-clique and a
4-clique, ``sweep_orientations(g, part).to_json()`` must serialize to the
same JSON as the loop that runs both oracles over the whole pruned walk.
Then co-P(2) and co-P(3) are swept with the structural core patched to
reject everything: every semi-transitive orientation is then a
disagreement, so the sweep must walk the whole tree again, and its
disagreements must come in the loop's order.  Prints any graph that
differs and exits 1 on a difference.  Pytest does not collect this file;
it takes about 45 s.
"""

import json
import sys
from itertools import combinations
from math import factorial

import wordrep.cobipartite as cob
from wordrep.constructions import complement_path_graph
from wordrep.graphs import CoBipartitePartition, Graph
from wordrep.orientations import Orientation, count_acyclic_orientations


def whole_walk(g: Graph, part: CoBipartitePartition) -> dict:
    """What ``sweep_orientations`` reports, from both oracles on every
    orientation of the whole pruned walk."""
    cliques = cob._cliques(g, part)
    semi, disagreements = 0, []
    for out, free in cob._pruned_walk(g, cliques):
        semi += free
        if free != (cob._failed_stage(out, cliques) is None):
            o = Orientation(g, out)
            structural, report = cob.is_semi_transitive_cobip(o, part)
            disagreements.append({"arcs": [f"{u} -> {v}" for u, v in o.arcs()],
                                  "pathOracle": free, "structuralOracle": structural,
                                  "report": report.to_json()})
    return {"orientations": count_acyclic_orientations(g), "semiTransitive": semi,
            "disagreements": disagreements, "sampled": False, "seed": None,
            "ordersExamined": factorial(len(g.vertices))}


def differs(name: str, g: Graph, part: CoBipartitePartition) -> bool:
    swept = json.dumps(cob.sweep_orientations(g, part).to_json())
    walked = json.dumps(whole_walk(g, part))
    if swept != walked:
        print(f"{name}: edges {g.edges()}\n  half:  {swept}\n  whole: {walked}")
    return swept != walked


def main() -> int:
    a, b = ("a1", "a2", "a3"), ("b1", "b2", "b3", "b4")
    inner = list(combinations(a, 2)) + list(combinations(b, 2))
    pairs = [(x, y) for x in a for y in b]
    part = CoBipartitePartition(a, b)
    differences = 0
    for bits in range(1 << len(pairs)):
        g = Graph.from_edges(a + b, inner + [e for t, e in enumerate(pairs) if bits >> t & 1])
        differences += differs(f"3+4 pattern {bits}", g, part)
    core = cob._failed_stage
    cob._failed_stage = lambda out, cliques: "typing"
    try:
        for n in (2, 3):
            g, part = complement_path_graph(n)
            differences += differs(f"co-P({n}), core rejecting everything", g, part)
    finally:
        cob._failed_stage = core
    print(f"{1 << len(pairs)} cross patterns and 2 rejecting sweeps, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
