"""
Structural characterization of co-bipartite orientations
========================================================

For a graph split into two cliques, semi-transitivity of an orientation
can be decided without any path search: order each clique, type every
vertex against the opposite order (A, B, or C), and check three
cross-pattern conditions.  This demo classifies vertices by hand and then
sweeps whole graphs comparing the structural verdict with the generic
shortcut search.
"""

from itertools import combinations

from wordrep import (
    CoBipartitePartition,
    Graph,
    Orientation,
    classify_vertex,
    clique_order,
    is_semi_transitive_cobip,
    named_witness,
    sweep_orientations,
)
from wordrep.constructions import complement_cycle_graph

# --- typing vertices against the opposite clique's order -------------------
# Clique {x, y} against the chain p1 -> p2 -> p3 -> p4.  x receives from
# the top of the chain and sends into the bottom: type C, with the
# boundary marking where its in-neighbors stop and out-neighbors start.

chain = ["p1", "p2", "p3", "p4"]
edges = list(combinations(chain, 2)) + [("x", "y")]
edges += [("x", "p1"), ("x", "p2"), ("x", "p3"), ("x", "p4")]
edges += [("y", "p2"), ("y", "p3")]
g = Graph.from_edges(["x", "y"] + chain, edges)
partition = CoBipartitePartition(("x", "y"), tuple(chain))

arcs = list(combinations(chain, 2))  # transitive chain
arcs += [("x", "y"), ("p1", "x"), ("p2", "x"), ("x", "p3"), ("x", "p4")]
arcs += [("y", "p2"), ("y", "p3")]
o = Orientation.from_arcs(g, arcs)

print("chain order:", clique_order(o, tuple(chain)).vertices)
for v in ("x", "y"):
    info = classify_vertex(o, partition, v)
    print(f"vertex {v}: type {info.tag}", info.boundary or info.interval)

# y sends into both boundary vertices of x, a pattern the type C
# condition reports when asked directly:
from wordrep.cobipartite import check_condition_typec

print("type C condition violations:", check_condition_typec(o, partition))

# The staged verdict stops even earlier: this orientation is cyclic
# through p2 (x -> y -> p2 -> x), which already makes p2 untypable.
ok, report = is_semi_transitive_cobip(o, partition)
print("verdict:", ok, "failed stage:", report.failed_stage)

# --- sweeping a well-behaved graph ------------------------------------------
# The complement of the 6-cycle: every acyclic orientation gets both
# verdicts; they agree everywhere and many orientations pass.

g, partition = complement_cycle_graph(3)
result = sweep_orientations(g, partition)
print("co-cycle sweep:", result.to_json())

# --- sweeping a witness -------------------------------------------------------
# The witness graphs have no semi-transitive orientation, and both
# deciders agree on every single orientation.

g, partition = named_witness("T2bar")
result = sweep_orientations(g, partition)
print("T2bar sweep: orientations =", result.orientations,
      "semi-transitive =", result.semi_transitive,
      "disagreements =", len(result.disagreements))
