"""
Semi-transitive orientations and representability
=================================================

A graph has a representing word exactly when some acyclic orientation is
shortcut-free.  At seven vertices the search space is small enough to
settle membership exhaustively, which is how the known non-representable
co-bipartite graphs are certified here.
"""

import time

from wordrep import (
    GeneralizedCrownParams,
    Graph,
    Orientation,
    bounded_representation_number,
    find_noncomparability_witness,
    find_semi_transitive_orientation,
    find_shortcut,
    find_uniform_word,
    is_comparability,
    named_witness,
    representable_via_dominant,
    represents,
)
from wordrep.constructions import complement_crown_graph

# --- what a shortcut looks like ------------------------------------------------
# A directed 4-cycle with one edge reversed and no chords: the path
# a -> b -> c -> d plus the shortcutting edge a -> d.

g = Graph.from_edges("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
o = Orientation.from_arcs(g, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
print("shortcut witness:", find_shortcut(o).to_json())

# --- the non-representable witnesses -------------------------------------------
# Both 7-vertex witnesses, and the crown-plus-dominant-vertex family, have
# no semi-transitive orientation at all.

for name, n in (("T1bar", None), ("T2bar", None), ("G1bar", 3)):
    graph, partition = named_witness(name, n)
    start = time.perf_counter()
    found = find_semi_transitive_orientation(graph)
    label = name if n is None else f"{name}({n})"
    print(f"{label}: semi-transitive orientation: {found}  "
          f"({time.perf_counter() - start:.2f}s exhaustive)")

# --- representation number of the triangular prism ------------------------------
# The prism (complement of the 3-crown) has representing words, but none
# that uses every letter once or twice: its representation number is 3.

prism, _ = complement_crown_graph(GeneralizedCrownParams(3, 0))
print("prism 2-uniform word:", find_uniform_word(prism, 2))
k = bounded_representation_number(prism, 3)
w = find_uniform_word(prism, k)
print(f"prism representation number: {k}, word: {w}")
print("word verifies:", represents(w, prism).ok)

# The number comes from word searches guided by semi-transitive
# orientations with vertex 0 a source: a letter's first copy goes only
# after the first copies of its in-neighbours.  The decider's orientation
# is one of them, and a 3-uniform word follows it.

o = find_semi_transitive_orientation(prism)
guided = find_uniform_word(prism, k, o)
print("prism pinned orientation:", o)
print(f"prism guided word: {guided}  (verifies: {represents(guided, prism).ok})")

# --- comparability and the odd-walk certificate ----------------------------------
# A transitive orientation is stronger than a semi-transitive one.  The
# prism has none, and a closed odd walk with no triangular chord is a
# finite certificate of that fact.

print("prism transitive orientation:", is_comparability(prism))
walk = find_noncomparability_witness(prism, 9)
print("chordless odd walk:", " ".join(walk))

# --- the dominant-vertex shortcut -------------------------------------------------
# When some vertex sees everything else, representability of the whole
# graph reduces to comparability of the rest.  That is what makes the
# crown-plus-isolated-vertex complements non-representable.

g1, _ = named_witness("G1bar", 3)
print("G1bar(3) via dominant vertex:", representable_via_dominant(g1, "v"))
print("G1bar(3) via exhaustive search:",
      find_semi_transitive_orientation(g1) is not None)
