"""
Representing words for co-bipartite families
============================================

Walks through the family constructions: complements of paths, even
cycles and generalized crowns, then the fixed-clique block words.
Every word is re-checked with the generic verifier.
"""

from wordrep import (
    GeneralizedCrownParams,
    NeighborhoodProfile2,
    NeighborhoodProfile3,
    Word,
    is_uniform,
    represents,
    restrict,
    word_cobip,
    word_complement_even_cycle,
    word_complement_path,
    word_generalized_crown,
)
from wordrep.constructions import (
    cobip_graph,
    complement_crown_graph,
    complement_cycle_graph,
    complement_path_graph,
)

# --- complements of paths --------------------------------------------------
# The word for the complement of the path on 2n vertices is two
# permutations of the vertex set glued together.

for n in (1, 2, 3, 4):
    w = word_complement_path(n)
    g, _ = complement_path_graph(n)
    print(f"co-path  n={n}: {w}   verified={represents(w, g).ok}")

# Two letters alternate exactly when the vertices are adjacent; the path
# edge 1-1' disappears in the complement, so 1 and 1' must not alternate:
w = word_complement_path(3)
print("restriction to {1, 1'}:", restrict(w, {"1", "1'"}))

# --- complements of even cycles ---------------------------------------------
# Built from the path word by prefixing its initial permutation and
# swapping two adjacent letters, which breaks exactly one alternation.

for n in (2, 3, 4):
    w = word_complement_even_cycle(n)
    g, _ = complement_cycle_graph(n)
    print(f"co-cycle n={n}: {w}   verified={represents(w, g).ok}")

# --- complements of generalized crowns ---------------------------------------
# Five letter-to-word homomorphisms expand into a 3-uniform word.

for n, k in ((3, 0), (4, 1), (5, 2)):
    w = word_generalized_crown(GeneralizedCrownParams(n, k))
    g, _ = complement_crown_graph(GeneralizedCrownParams(n, k))
    print(f"crown ({n},{k}): uniform={is_uniform(w)} verified={represents(w, g).ok}")
    print("   ", w)

# --- fixed clique of size 2 ---------------------------------------------------
# Members of the free clique are grouped by which of {1, 2} they see;
# the word is the profile type's block template with each group as a block.

profile = NeighborhoodProfile2({
    "a": frozenset({"1", "2"}),
    "b": frozenset({"1"}),
    "c": frozenset(),
})
w = word_cobip(profile)
g, _ = cobip_graph(profile)
print("clique-2 word:", w, "  verified:", represents(w, g).ok)

# --- fixed clique of size 3 ---------------------------------------------------
# Same functions, another profile type with six admissible groups;
# members seeing all of {1, 2, 3} or none of it are rejected, since such
# graphs can fail to have a word.

profile = NeighborhoodProfile3({
    "a": frozenset({"1", "3"}),
    "b": frozenset({"2"}),
})
w = word_cobip(profile)
g, _ = cobip_graph(profile)
print("clique-3 word:", w, "  verified:", represents(w, g).ok)

# --- what a failed verification looks like ------------------------------------

from wordrep.graphs import Graph

k2 = Graph.from_edges(["1", "2"], [("1", "2")])
report = represents(Word.from_text("1 1 2 2"), k2)
print("bad word report:", report.dumps())
