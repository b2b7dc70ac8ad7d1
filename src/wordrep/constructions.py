"""Explicit representing words for the co-bipartite families.

Each builder returns the word for one family together with (via the
companion ``*_graph`` helpers) the graph it is supposed to represent, so
callers can always re-verify the pair with ``words.represents``.  The
builders follow the construction recipes literally: the path word is a
concatenation of two fixed permutations, the cycle word is obtained from
it by one position swap, the crown word expands five letter-to-word
homomorphisms, and the fixed-clique word expands a block template in which
every neighborhood class is a block.  Clique sizes 2 and 3 differ only in
the constants of their profile type (the fixed clique, the rejected
classes and the template); ``cobip_graph`` and ``word_cobip`` serve both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, Mapping

from .graphs import (
    BipartiteSpec,
    CoBipartitePartition,
    GeneralizedCrownParams,
    Graph,
    GraphError,
    _bad_label,
    _parts,
    cobipartite_from_bipartite,
    cycle_bipartite,
    path_bipartite,
    primed,
    unprimed,
)
from .words import Word, prepend_initial


# --- complements of paths and cycles --------------------------------------


def word_complement_path(n: int, even: bool = True) -> Word:
    """Representing word for the complement of the path on 2n (or 2n-1) vertices.

    The even word is the concatenation of two permutations of the vertex
    set: 1 2 1' 3 2' ... n (n-1)' n'  followed by  1' 1 2' 2 ... n' n.
    The odd variant drops every occurrence of n', the deleted endpoint.
    """
    if n < 1:
        raise GraphError("need n >= 1")
    first = [unprimed(1)]
    for i in range(2, n + 1):
        first += [unprimed(i), primed(i - 1)]
    first.append(primed(n))
    second = []
    for i in range(1, n + 1):
        second += [primed(i), unprimed(i)]
    letters = first + second
    if not even:
        letters = [x for x in letters if x != primed(n)]
    return Word(tuple(letters))


def complement_path_graph(n: int, even: bool = True) -> tuple[Graph, CoBipartitePartition]:
    g, part = cobipartite_from_bipartite(path_bipartite(n))
    if even:
        return g, part
    odd = g.induced(v for v in g.vertices if v != primed(n))
    return odd, CoBipartitePartition(part.clique_a, part.clique_b[:-1])


def word_complement_even_cycle(n: int) -> Word:
    """Representing word for the complement of the cycle on 2n vertices.

    Built from the path word w as pi(w)w, then swapping the first
    occurrence of n' with the second occurrence of 1.  The two positions
    are located explicitly and sanity-checked before swapping.
    """
    if n < 2:
        raise GraphError("need n >= 2 for a simple even cycle")
    w = word_complement_path(n, even=True)
    w1 = list(prepend_initial(w).letters)
    first_np = w1.index(primed(n))
    second_one = [i for i, x in enumerate(w1) if x == unprimed(1)][1]
    # In pi(w)w the first permutation ends with n' and the copy of w starts
    # with 1, so the two targets must sit side by side.
    assert first_np == 2 * n - 1 and second_one == 2 * n, (first_np, second_one)
    w1[first_np], w1[second_one] = w1[second_one], w1[first_np]
    return Word(tuple(w1))


def complement_cycle_graph(n: int) -> tuple[Graph, CoBipartitePartition]:
    return cobipartite_from_bipartite(cycle_bipartite(n))


# --- complements of generalized crowns ------------------------------------


def word_generalized_crown(params: GeneralizedCrownParams) -> Word:
    """Representing word for the complement of a generalized crown.

    Expands h1(V1) h2(V2) h3(V1) h2(V2) h4(V3) h5(V4) where
    h1(x) = x, h2(x) = x'(n-k+x), h3(x) = (k+x)'x, h4(x) = x', h5(x) = xx',
    V1 = 1..n-k, V2 = 1..k, V3 = k+1..n and V4 = V2 V3.  The result is
    3-uniform.
    """
    n, k = params.n, params.k
    h1 = lambda x: [unprimed(x)]
    h2 = lambda x: [primed(x), unprimed(n - k + x)]
    h3 = lambda x: [primed(k + x), unprimed(x)]
    h4 = lambda x: [primed(x)]
    h5 = lambda x: [unprimed(x), primed(x)]
    v1 = range(1, n - k + 1)
    v2 = range(1, k + 1)
    v3 = range(k + 1, n + 1)
    v4 = chain(v2, v3)
    letters = []
    for h, block in ((h1, v1), (h2, v2), (h3, v1), (h2, v2), (h4, v3), (h5, v4)):
        for x in block:
            letters += h(x)
    return Word(tuple(letters))


def complement_crown_graph(params: GeneralizedCrownParams) -> tuple[Graph, CoBipartitePartition]:
    """The complement of ``generalized_crown(params)``, built as bitsets.

    Both parts become cliques, and i~j' is a cross edge exactly when the
    crown lacks it, that is when (j - i) mod n <= k.  Vertices and partition
    are those of ``cobipartite_from_bipartite`` on the crown.
    """
    n, k = params.n, params.k
    part_x, part_y = _parts(n)
    clique = (1 << n) - 1
    adj = [clique ^ 1 << i | sum(1 << n + (i + t) % n for t in range(k + 1))
           for i in range(n)]
    adj += [clique << n ^ 1 << n + j | sum(1 << (j - t) % n for t in range(k + 1))
            for j in range(n)]
    return Graph(part_x + part_y, tuple(adj)), CoBipartitePartition(part_x, part_y)


# --- co-bipartite graphs with one clique of size 2 or 3 -------------------
#
# The vertices of the free clique are classified by which of the fixed
# clique's vertices they are adjacent to.  A profile maps each free vertex
# to that adjacency subset; the word expands the profile type's block
# template, where every class appears as a block (members in ascending
# label order).  Both sizes share one graph builder and one expander.


@dataclass(frozen=True)
class NeighborhoodProfile:
    """Adjacency of each free-clique vertex towards the fixed clique ``FIXED``.

    Subclasses fix the clique, the classes they reject and the block
    template: strings in it name the fixed-clique letters, frozensets the
    class adjacent to exactly that subset.
    """

    adjacency: Mapping[str, frozenset[str]]

    FIXED: ClassVar[tuple[str, ...]]
    FORBIDDEN: ClassVar[tuple[frozenset[str], ...]] = ()
    TEMPLATE: ClassVar[tuple[str | frozenset[str], ...]]

    def __post_init__(self) -> None:
        fixed = set(self.FIXED)
        for member, adj in self.adjacency.items():
            if member in fixed:
                raise GraphError(f"member label {member!r} collides with the fixed clique")
            if not set(adj) <= fixed:
                raise GraphError(
                    f"{member!r} lists non-clique neighbors {sorted(set(adj) - fixed)}")
            if frozenset(adj) in self.FORBIDDEN:
                raise GraphError(
                    f"{member!r} has forbidden neighborhood {{{', '.join(sorted(adj))}}}")

    def members_of(self, klass: frozenset[str]) -> list[str]:
        return sorted(m for m, adj in self.adjacency.items() if adj == klass)


class NeighborhoodProfile2(NeighborhoodProfile):
    """Adjacency towards the fixed clique {1, 2}; every class is allowed."""

    FIXED = ("1", "2")
    TEMPLATE = (
        frozenset({"1", "2"}), "1", frozenset({"2"}), "2", frozenset(),
        frozenset({"1"}), frozenset({"1", "2"}), frozenset({"2"}), frozenset(),
        "1", frozenset({"1"}), "2",
    )


class NeighborhoodProfile3(NeighborhoodProfile):
    """Adjacency towards the fixed clique {1, 2, 3}.

    Vertices adjacent to all three or to none are rejected: both patterns
    can produce non-word-representable graphs, and no block word is known
    for them.
    """

    FIXED = ("1", "2", "3")
    FORBIDDEN = (frozenset({"1", "2", "3"}), frozenset())
    TEMPLATE = (
        "1", frozenset({"1", "3"}), "2", frozenset({"1"}), frozenset({"1", "2"}),
        "3", frozenset({"2"}), "1", frozenset({"2", "3"}), "2", frozenset({"3"}),
        frozenset({"1", "3"}), "3", frozenset({"1"}), frozenset({"1", "2"}), "1",
        frozenset({"2"}), frozenset({"2", "3"}), frozenset({"3"}), frozenset({"1", "3"}),
        frozenset({"1"}), "2", frozenset({"1", "2"}), frozenset({"2"}), "3",
        frozenset({"2", "3"}), frozenset({"3"}),
    )


def cobip_graph(profile: NeighborhoodProfile) -> tuple[Graph, CoBipartitePartition]:
    """The co-bipartite graph of a profile: both cliques plus its cross edges.

    It is the complement of the bipartite graph joining each member to the
    fixed-clique vertices outside its class.
    """
    fixed, members = profile.FIXED, tuple(sorted(profile.adjacency))
    cross = frozenset((t, m) for m in members for t in fixed if t not in profile.adjacency[m])
    return cobipartite_from_bipartite(BipartiteSpec(fixed, members, cross))


def word_cobip(profile: NeighborhoodProfile) -> Word:
    """Block word for a profile: its template with each class block expanded."""
    return Word(tuple(chain.from_iterable(
        [block] if isinstance(block, str) else profile.members_of(block)
        for block in profile.TEMPLATE)))


# --- class-token parsing shared with the command line ---------------------


def parse_class_token(token: str, size: int) -> frozenset[str]:
    """Parse a neighborhood class like 'N12', '13', or 'N0'/'none' for empty."""
    if token in ("none", "-"):
        return frozenset()
    body = token[1:] if token[:1] in ("N", "n") else token
    if body in ("0", "", "-", "none"):
        return frozenset()
    digits = sorted(set(body))
    allowed = {str(d) for d in range(1, size + 1)}
    if not set(digits) <= allowed:
        raise GraphError(f"bad class token {token!r}")
    return frozenset(digits)


def parse_profile(text: str, size: int) -> NeighborhoodProfile:
    """Parse 'a:N12,b:1,c:none' into a neighborhood profile for clique size 2 or 3.

    Raises GraphError on a member label that no graph holds.
    """
    profile_type = {2: NeighborhoodProfile2, 3: NeighborhoodProfile3}.get(size)
    if profile_type is None:
        raise GraphError("fixed clique size must be 2 or 3")
    adjacency: dict[str, frozenset[str]] = {}
    text = text.strip()
    if text:
        for item in text.split(","):
            if ":" not in item:
                raise GraphError(f"bad profile item {item!r}, expected label:class")
            label, token = item.split(":", 1)
            label = label.strip()
            if _bad_label(label):  # each member becomes a vertex and a letter
                raise GraphError(f"bad member label {label!r}: empty, whitespace, '#' or ':'")
            if label in adjacency:
                raise GraphError(f"duplicate member {label!r}")
            adjacency[label] = parse_class_token(token.strip(), size)
    return profile_type(adjacency)
