"""Check the characterize sweeps that walk one mirror half against the
literal loops over the whole walk.

    PYTHONPATH=src python tests/check_mirror_sweep.py

For each of the 4,096 labelled cross patterns of a 3-clique and a
4-clique, the full ``sweep_orientations(g, part).to_json()``, which walks
one mirror half and doubles its count, must serialize to the same JSON as
the loop that runs both oracles over the whole pruned walk.  For every
eighth pattern (512 of them), a sampled sweep with as many draws as the
pattern has acyclic orientations, which reads one mirror half and looks
up each orientation and its reverse among the draws, must match the loop
over the whole pruned walk filtered by the draws, with its disagreements
in draw order.  Then co-P(2) and co-P(3) are swept in full, and co-P(3)
sampled, with the structural core patched to reject everything: every
semi-transitive orientation is then a disagreement, so a full sweep must
walk the whole tree again, and the disagreements must come in the loop's
order.  Prints any graph that differs and exits 1 on a difference.  Pytest
does not collect this file; it takes about 30 s on a 2-core machine.
"""

import json
import sys
from itertools import combinations
from math import factorial
from typing import Optional

import wordrep.cobipartite as cob
from wordrep.constructions import complement_path_graph
from wordrep.graphs import CoBipartitePartition, Graph
from wordrep.orientations import Orientation, count_acyclic_orientations

SEED = 33


def whole_walk(g: Graph, part: CoBipartitePartition, threshold: Optional[int] = None) -> dict:
    """What ``sweep_orientations`` reports, from both oracles on every
    orientation of the whole pruned walk, or with ``threshold``, on those
    that ``threshold`` draws with ``SEED`` give, in draw order."""
    cliques = cob._cliques(g, part)
    sampled = threshold is not None
    drawn = cob._drawn(g.adj, threshold, SEED) if sampled else None
    semi, found = 0, []
    for out, free in cob._pruned_walk(g, cliques):
        if sampled and out not in drawn:
            continue
        semi += free
        if free != (cob._failed_stage(out, cliques) is None):
            o = Orientation(g, out)
            structural, report = cob.is_semi_transitive_cobip(o, part)
            found.append((out, {"arcs": [f"{u} -> {v}" for u, v in o.arcs()],
                                "pathOracle": free, "structuralOracle": structural,
                                "report": report.to_json()}))
    if sampled:
        found.sort(key=lambda item: drawn[item[0]])
    return {"orientations": len(drawn) if sampled else count_acyclic_orientations(g),
            "semiTransitive": semi, "disagreements": [record for _, record in found],
            "sampled": sampled, "seed": SEED if sampled else None,
            "ordersExamined": threshold if sampled else factorial(len(g.vertices))}


def differs(name: str, g: Graph, part: CoBipartitePartition,
            threshold: Optional[int] = None) -> bool:
    swept = json.dumps(cob.sweep_orientations(
        g, part, sample_threshold=threshold or cob.DEFAULT_SAMPLE_THRESHOLD, seed=SEED).to_json())
    walked = json.dumps(whole_walk(g, part, threshold))
    if swept != walked:
        print(f"{name}: edges {g.edges()}\n  half:  {swept}\n  whole: {walked}")
    return swept != walked


def main() -> int:
    a, b = ("a1", "a2", "a3"), ("b1", "b2", "b3", "b4")
    inner = list(combinations(a, 2)) + list(combinations(b, 2))
    pairs = [(x, y) for x in a for y in b]
    part = CoBipartitePartition(a, b)
    differences = sampled = 0
    for bits in range(1 << len(pairs)):
        g = Graph.from_edges(a + b, inner + [e for t, e in enumerate(pairs) if bits >> t & 1])
        differences += differs(f"3+4 pattern {bits}", g, part)
        if bits % 8 == 0:
            differences += differs(f"3+4 pattern {bits}, sampled", g, part,
                                   count_acyclic_orientations(g))
            sampled += 1
    core = cob._failed_stage
    cob._failed_stage = lambda out, cliques: "typing"
    try:
        for n in (2, 3):
            g, part = complement_path_graph(n)
            differences += differs(f"co-P({n}), core rejecting everything", g, part)
        g, part = complement_path_graph(3)
        differences += differs("co-P(3) sampled, core rejecting everything", g, part,
                               count_acyclic_orientations(g))
    finally:
        cob._failed_stage = core
    print(f"{1 << len(pairs)} cross patterns, {sampled} of them sampled, and 3 rejecting "
          f"sweeps, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
