"""Directed orientations of small graphs and the searches built on them.

The central notion: an orientation is semi-transitive when it is acyclic
and no directed path between the endpoints of an edge induces a
non-transitive subdigraph (a shortcut).  A graph has a representing word
exactly when it admits such an orientation, so exhaustive search over
acyclic orientations decides word-representability at desk scale.

Acyclic orientations are generated vertex by vertex: each new vertex
points at a set of its earlier neighbours that is closed under reachability,
so every branch ends in a distinct acyclic orientation and nothing needs
deduplicating.  The shortcut test enumerates no paths: an arc u->v is
shortcut exactly when some vertex reachable from u reaches a non-neighbour
that reaches v, so one pass over reachability bitsets checks an
orientation in polynomial time.  The literal path-enumerating definition
stays in the test suite as the oracle this test is checked against.

Also here: transitive-orientation search (comparability), its odd-walk
refutation witness, the dominant-vertex reduction, and a backtracking
search for uniform representing words of bounded multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graphs import Graph, GraphError, _bits
from .words import Word, _advance

DEFAULT_MAX_VERTICES = 10
DEFAULT_MAX_UNIFORMITY = 3
WORD_SEARCH_MAX_VERTICES = 6


class OrientationError(ValueError):
    """Orientation misuse: cyclic input where a DAG is required, bad arcs."""


class CapExceededError(ValueError):
    """Input exceeds the configured exhaustive-search cap."""


@dataclass(frozen=True, eq=False)
class Orientation:
    """A direction for every edge of the owning graph, as out-neighbor bitsets."""

    graph: Graph
    out: tuple[int, ...]

    @classmethod
    def from_order(cls, g: Graph, order: Iterable[str]) -> "Orientation":
        """Orient every edge from the earlier to the later vertex of a linear order."""
        order = tuple(order)
        if sorted(order) != sorted(g.vertices):
            raise OrientationError("order must list every vertex exactly once")
        return cls(g, outs_from_order(g.adj, [g.index(v) for v in order]))

    @classmethod
    def from_arcs(cls, g: Graph, arcs: Iterable[tuple[str, str]]) -> "Orientation":
        out = [0] * len(g.vertices)
        for u, v in arcs:
            i, j = g.index(u), g.index(v)
            if not g.adj[i] >> j & 1:
                raise OrientationError(f"({u}, {v}) is not an edge")
            if (out[i] >> j | out[j] >> i) & 1:
                raise OrientationError(f"edge ({u}, {v}) directed twice")
            out[i] |= 1 << j
        for i, mask in enumerate(g.adj):
            incoming = sum((row >> i & 1) << j for j, row in enumerate(out))
            if (out[i] | incoming) != mask:
                raise OrientationError("not every edge received a direction")
        return cls(g, tuple(out))

    def has_arc(self, u: str, v: str) -> bool:
        return bool(self.out[self.graph.index(u)] >> self.graph.index(v) & 1)

    def arcs(self) -> list[tuple[str, str]]:
        """Directed edges in the canonical edge order of the graph."""
        result = []
        for u, v in self.graph.edges():
            result.append((u, v) if self.has_arc(u, v) else (v, u))
        return result

    def serialize(self) -> str:
        return "\n".join(f"{u} -> {v}" for u, v in self.arcs()) + "\n"

    def __repr__(self) -> str:
        return f"Orientation({', '.join(f'{u}->{v}' for u, v in self.arcs())})"


def _topo_order(out: tuple[int, ...]) -> Optional[list[int]]:
    """Topological order of the out-bitset digraph, or None on a cycle.

    Sweeps the pending vertices, placing each one whose successors are all
    placed (so sinks come first); a sweep that places nothing means a cycle.
    """
    order = []
    placed = 0
    pending = list(range(len(out)))
    while pending:
        waiting = []
        for i in pending:
            if out[i] & ~placed:
                waiting.append(i)
            else:
                order.append(i)
                placed |= 1 << i
        if len(waiting) == len(pending):
            return None
        pending = waiting
    order.reverse()
    return order


def is_acyclic(o: Orientation) -> bool:
    return _topo_order(o.out) is not None


@dataclass(frozen=True)
class ShortcutWitness:
    """A directed path, its shortcutting edge, and the pair breaking transitivity."""

    path_vertices: tuple[str, ...]
    shortcutting_edge: tuple[str, str]
    nontransitive_pair: tuple[str, str]

    def to_json(self) -> dict:
        return {
            "type": "shortcut",
            "vertices": list(self.path_vertices),
            "detail": {
                "shortcuttingEdge": list(self.shortcutting_edge),
                "missingPair": list(self.nontransitive_pair),
            },
        }


class ShortcutSearcher:
    """Per-graph state for the shortcut search, reusable across orientations.

    An arc u->v is shortcut exactly when some x reachable from u (u itself
    included) reaches a non-neighbour y that reaches v: the path
    u->*x->*y->*v then has at least four vertices and a missing pair, and
    every shortcut has such a pair.  So one pass in reverse topological
    order suffices: ``reach[u]`` holds the descendants of u and ``far[u]``
    the vertices reachable from u through a non-adjacent ordered pair.  The
    pass stops at the first vertex u with an arc into ``far[u]``, so the
    witness for a given orientation is deterministic.
    """

    def __init__(self, g: Graph):
        self.graph = g
        full = (1 << len(g.vertices)) - 1
        self.nonadj = [full & ~(mask | 1 << i) for i, mask in enumerate(g.adj)]

    def find(self, out: tuple[int, ...]) -> Optional[ShortcutWitness]:
        order = _topo_order(out)
        if order is None:
            raise OrientationError("shortcut search needs an acyclic orientation")
        nonadj = self.nonadj
        reach = [0] * len(out)
        far = [0] * len(out)
        for u in reversed(order):
            r, f = 1 << u, 0
            for w in _bits(out[u]):
                r |= reach[w]
                f |= far[w]
            for y in _bits(r & nonadj[u]):
                f |= reach[y]
            reach[u], far[u] = r, f
            hit = out[u] & f
            if hit:
                return self._witness(out, reach, u, next(_bits(hit)))
        return None

    def _witness(self, out: tuple[int, ...], reach: list[int],
                 u: int, v: int) -> ShortcutWitness:
        x, y = next((x, y) for x in _bits(reach[u])
                    for y in _bits(reach[x] & self.nonadj[x]) if reach[y] >> v & 1)
        # Walk u ->* x ->* y ->* v, always stepping to the lowest-index
        # out-neighbour that still reaches the next stop; in an acyclic
        # orientation that walk is a path.
        path = [u]
        for stop in (x, y, v):
            while path[-1] != stop:
                path.append(next(w for w in _bits(out[path[-1]]) if reach[w] >> stop & 1))
        labels = self.graph.vertices
        return ShortcutWitness(
            tuple(labels[i] for i in path),
            (labels[u], labels[v]),
            (labels[x], labels[y]),
        )


def find_shortcut(o: Orientation) -> Optional[ShortcutWitness]:
    """A shortcut of an acyclic orientation, or None when shortcut-free.

    The witness is a directed u-v path on at least 4 vertices closed by the
    shortcutting arc u->v, with a non-adjacent pair in path order; see
    ``ShortcutSearcher`` for which one is returned.
    """
    return ShortcutSearcher(o.graph).find(o.out)


def is_semi_transitive(o: Orientation) -> bool:
    return is_acyclic(o) and find_shortcut(o) is None


def outs_transitive(out: tuple[int, ...]) -> bool:
    """u->v and v->z always implies u->z."""
    for mask in out:
        for j in _bits(mask):
            if out[j] & ~mask:
                return False
    return True


def is_transitive(o: Orientation) -> bool:
    return outs_transitive(o.out)


# --- exhaustive enumeration ------------------------------------------------


def outs_from_order(adj: tuple[int, ...], order: list[int]) -> tuple[int, ...]:
    """Out-bitsets orienting each edge from the earlier to the later vertex of an index order."""
    out = [0] * len(adj)
    later = 0
    for i in reversed(order):
        out[i] = adj[i] & later
        later |= 1 << i
    return tuple(out)


def acyclic_outsets(g: Graph) -> Iterator[tuple[int, ...]]:
    """Out-bitsets of every acyclic orientation, each exactly once.

    Vertices join in index order.  Vertex k points at a set S of its
    earlier neighbours and the rest point at k; that closes a cycle exactly
    when a member of S reaches an earlier neighbour outside S.  Deciding
    the earlier neighbours descendants-first (a descendant reaches fewer
    vertices) lets each one join S unless it reaches one already left out,
    so every branch completes and no orientation repeats.
    """
    n = len(g.vertices)
    adj = g.adj

    def extend(k: int, out: list[int], reach: list[int]) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(out)
            return
        kbit = 1 << k
        back = adj[k] & (kbit - 1)
        choices = [0]
        decided = 0
        for b in sorted(_bits(back), key=lambda b: reach[b].bit_count()):
            bit = 1 << b
            below = reach[b] & decided
            nxt = []
            for s in choices:
                nxt.append(s)
                if not below & ~s:
                    nxt.append(s | bit)
            choices = nxt
            decided |= bit
        for s in choices:
            inward = back & ~s
            reach_k = kbit
            for j in _bits(s):
                reach_k |= reach[j]
            yield from extend(
                k + 1,
                [o | kbit if inward >> i & 1 else o for i, o in enumerate(out)] + [s],
                [r | reach_k if r & inward else r for r in reach] + [reach_k],
            )

    return extend(0, [], [])


def _check_cap(g: Graph, max_vertices: int) -> None:
    if len(g.vertices) > max_vertices:
        raise CapExceededError(
            f"{len(g.vertices)} vertices exceeds the cap of {max_vertices}"
        )


def enumerate_acyclic_orientations(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> Iterator[Orientation]:
    """Every acyclic orientation exactly once."""
    _check_cap(g, max_vertices)
    for out in acyclic_outsets(g):
        yield Orientation(g, out)


def find_semi_transitive_orientation(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> Optional[Orientation]:
    """Exhaustive search; None means no semi-transitive orientation exists."""
    _check_cap(g, max_vertices)
    searcher = ShortcutSearcher(g)
    for out in acyclic_outsets(g):
        if searcher.find(out) is None:
            return Orientation(g, out)
    return None


def is_word_representable(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> bool:
    """A graph is word-representable iff it has a semi-transitive orientation."""
    return find_semi_transitive_orientation(g, max_vertices) is not None


def is_comparability(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> Optional[Orientation]:
    """A transitive orientation if one exists (comparability graph), else None."""
    _check_cap(g, max_vertices)
    for out in acyclic_outsets(g):
        if outs_transitive(out):
            return Orientation(g, out)
    return None


# --- odd closed walks without triangular chords ----------------------------
#
# A graph is a comparability graph iff every odd closed walk (in the
# generalized sense: consecutive pairs are edges and no ordered consecutive
# pair repeats, wrap included) has a triangular chord.  A chordless odd
# walk therefore certifies that no transitive orientation exists.


def find_noncomparability_witness(g: Graph, max_len: int) -> Optional[tuple[str, ...]]:
    """Shortest-first search for an odd closed walk with no triangular chord."""
    if max_len < 5 or max_len % 2 == 0:
        raise GraphError("walk length bound must be odd and at least 5")
    n = len(g.vertices)
    adj = g.adj
    by_label = sorted(range(n), key=g.vertices.__getitem__)
    rank = {i: r for r, i in enumerate(by_label)}

    def close_ok(walk: list[int], used: set[tuple[int, int]]) -> bool:
        last, first = walk[-1], walk[0]
        if not adj[last] >> first & 1:
            return False
        if (last, first) in used:
            return False
        # wrap chords (a_{k-1}, a_1) and (a_k, a_2)
        if adj[walk[-2]] >> first & 1 or adj[last] >> walk[1] & 1:
            return False
        return True

    def extend(walk: list[int], used: set[tuple[int, int]], k: int,
               min_rank: int) -> Optional[list[int]]:
        if len(walk) == k:
            return list(walk) if close_ok(walk, used) else None
        cur = walk[-1]
        for nxt in by_label:
            if rank[nxt] < min_rank or not adj[cur] >> nxt & 1:
                continue
            pair = (cur, nxt)
            if pair in used:
                continue
            if len(walk) >= 2 and adj[walk[-2]] >> nxt & 1:
                continue  # triangular chord (a_{i-1}, a_{i+1})
            used.add(pair)
            walk.append(nxt)
            found = extend(walk, used, k, min_rank)
            walk.pop()
            used.remove(pair)
            if found:
                return found
        return None

    # A closed walk repeats no ordered pair, so it has at most 2|E| steps.
    for k in range(5, min(max_len, 2 * g.edge_count) + 1, 2):
        for start in by_label:
            # Rotating a valid walk keeps it valid, so the start may be
            # pinned to the walk's label-minimal vertex.
            found = extend([start], set(), k, rank[start])
            if found:
                return tuple(g.vertices[i] for i in found)
    return None


def representable_via_dominant(g: Graph, x: str,
                               max_vertices: int = DEFAULT_MAX_VERTICES) -> bool:
    """Decide representability through a dominant vertex.

    With x adjacent to everything else, the graph is word-representable iff
    the rest is permutationally representable, i.e. a comparability graph.
    """
    if g.degree(x) != len(g.vertices) - 1:
        raise OrientationError(f"{x!r} is not adjacent to all other vertices")
    return is_comparability(g.without(x), max_vertices) is not None


# --- bounded-multiplicity word search --------------------------------------


def find_uniform_word(g: Graph, k: int) -> Optional[Word]:
    """Backtracking search for a k-uniform word representing g.

    The word grows letter by letter in vertex order, its alternation state
    kept by ``words._advance``, the step verification uses.  A letter may
    repeat only after all its graph neighbors have appeared since its
    previous occurrence, and every non-adjacent pair must split before both
    letters run out.  Uniform words may be rotated freely, so the first
    position is pinned to the first vertex.
    """
    n = len(g.vertices)
    if n == 0:
        raise GraphError("need at least one vertex")
    if k < 1:
        raise GraphError("multiplicity must be positive")
    adj = g.adj
    full = (1 << n) - 1
    nonadj = [full & ~adj[i] & ~(1 << i) for i in range(n)]
    word: list[int] = []
    remaining = [k] * n

    def search(since: list[int], split: list[int]) -> bool:
        if len(word) == n * k:
            return True
        for i in range(n) if word else (0,):
            if not remaining[i] or adj[i] & ~since[i]:
                continue
            remaining[i] -= 1
            word.append(i)
            since_i, split_i = _advance(since, split, i)
            # Once i is used up, a pair with i that has not split ends its
            # restriction with i, so it needs two more copies of the other,
            # which split it: a complete word has split every such pair.
            stuck = 0 if remaining[i] else nonadj[i] & ~split_i[i]
            if all(remaining[j] > 1 for j in _bits(stuck)) and search(since_i, split_i):
                return True
            remaining[i] += 1
            word.pop()
        return False

    if search([full] * n, [0] * n):
        return Word(tuple(g.vertices[i] for i in word))
    return None


def bounded_representation_number(
    g: Graph,
    max_k: int = DEFAULT_MAX_UNIFORMITY,
    max_vertices: int = WORD_SEARCH_MAX_VERTICES,
) -> Optional[int]:
    """Least multiplicity k <= max_k admitting a k-uniform representing word.

    None means no such word within the bound, which does not by itself
    disprove representability.
    """
    _check_cap(g, max_vertices)
    if max_k > DEFAULT_MAX_UNIFORMITY:
        raise CapExceededError(
            f"multiplicity bound {max_k} exceeds {DEFAULT_MAX_UNIFORMITY}"
        )
    if max_k < 1:
        raise GraphError(f"multiplicity bound {max_k} must be at least 1")
    for k in range(1, max_k + 1):
        if find_uniform_word(g, k) is not None:
            return k
    return None
