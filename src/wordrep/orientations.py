"""Directed orientations of small graphs and the searches built on them.

An orientation is semi-transitive when it is acyclic and no directed path
between the endpoints of an edge induces a non-transitive subdigraph (a
shortcut).  A graph has a representing word exactly when it admits such an
orientation, so exhaustive search over acyclic orientations decides
word-representability at desk scale.

This module holds the orientation type, the one enumerator of acyclic
orientations, the shortcut and transitivity tests, the semi-transitive and
comparability deciders, the orientation count, the comparability
refutations and the bounded uniform-word search.  Each argument that keeps
a search exact is stated once, in the docstring of the code relying on it:

* every acyclic orientation once, pruned and pinned: ``acyclic_outsets``;
* the shortcut test over reachability bitsets: ``ShortcutSearcher``;
* its incremental prefix step: ``ShortcutSearcher.prefix_free``;
* path verdicts flagged along one pruned walk: ``outsets_shortcut_free``;
* the count of acyclic orientations (Stanley): ``count_acyclic_orientations``;
* comparability refuted by implication classes: ``_forces_a_reversal``;
* a neighbourhood refuting semi-transitivity: ``_non_comparability_neighbourhood``;
* one mirror half: ``_one_mirror_half``; vertex 0 a source: ``_zero_source_pin``;
* the chordless odd walk: ``find_noncomparability_witness``;
* guided word searches, isolated vertices: ``bounded_representation_number``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import Graph, GraphError, _bits
from .words import Word, _advance, _lanes

DEFAULT_MAX_VERTICES = 10
DEFAULT_MAX_UNIFORMITY = 3
WORD_SEARCH_MAX_VERTICES = 6
# count_acyclic_orientations takes at most 3^n / 2 terms and a memo of up
# to 2^n polynomials of 32-bit lanes, which hold Bell(n) only up to n = 15:
# about 0.3 s for 14 edgeless vertices, far less on denser graphs (2-core
# machine, Python 3.11).
COUNT_MAX_VERTICES = 14


class OrientationError(ValueError):
    """Orientation misuse: cyclic input where a DAG is required, bad arcs."""


class CapExceededError(ValueError):
    """Input exceeds the configured exhaustive-search cap."""


@dataclass(frozen=True, eq=False)
class Orientation:
    """A direction for every edge of the owning graph, as out-neighbor bitsets."""

    graph: Graph
    out: tuple[int, ...]

    def __post_init__(self) -> None:
        """Raise OrientationError unless ``out`` directs every edge of the
        graph exactly once and puts no arc on a non-edge."""
        adj, out = self.graph.adj, self.out
        if len(out) != len(adj):
            raise OrientationError(f"{len(out)} out-bitsets for {len(adj)} vertices")
        if any(m & ~a for m, a in zip(out, adj)):
            raise OrientationError("the orientation puts an arc on a non-edge of the graph")
        # arcs only on edges, none both ways, as many as edges: each edge once
        if (sum(m.bit_count() for m in out) != self.graph.edge_count
                or any(out[j] >> i & 1 for i, m in enumerate(out) for j in _bits(m))):
            raise OrientationError("the orientation does not direct every edge exactly once")

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
        return cls(g, tuple(out))

    def arcs(self) -> list[tuple[str, str]]:
        """Directed edges in the canonical edge order of the graph."""
        labels = self.graph.vertices
        result = []
        for i, mask in enumerate(self.graph.adj):
            later, out_i = mask >> i + 1 << i + 1, self.out[i]
            while later:
                low = later & -later
                j = low.bit_length() - 1
                result.append((labels[i], labels[j]) if out_i & low else (labels[j], labels[i]))
                later ^= low
        return result

    def serialize(self) -> str:
        return "\n".join(f"{u} -> {v}" for u, v in self.arcs()) + "\n"

    def __repr__(self) -> str:
        return f"Orientation({', '.join(f'{u}->{v}' for u, v in self.arcs())})"


def _topo_order(out: Sequence[int]) -> Optional[list[int]]:
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


def _reach_far(u: int, succ: int, nonadj_u: int, reach: Sequence[int],
               far: Sequence[int]) -> tuple[int, int]:
    """``reach`` and ``far`` of u from those of its successors ``succ``: the
    successors' own, plus the reach of every non-neighbour u reaches."""
    r, f = 1 << u, 0
    while succ:
        low = succ & -succ
        w = low.bit_length() - 1
        r |= reach[w]
        f |= far[w]
        succ ^= low
    ys = r & nonadj_u
    while ys:
        low = ys & -ys
        f |= reach[low.bit_length() - 1]
        ys ^= low
    return r, f


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
    the vertices reachable from u through a non-adjacent ordered pair, both
    computed from u's successors by ``_reach_far``.  ``find`` stops at the
    first vertex u with an arc into ``far[u]`` and returns that arc as an
    index pair, so the result for a given orientation is deterministic.
    ``find_shortcut`` builds the labelled path on request.

    ``prefix_free`` is the incremental form of the same pass, the prefix
    check of the pruned enumeration: see its docstring.
    """

    def __init__(self, g: Graph):
        self.graph = g
        n = len(g.vertices)
        full = (1 << n) - 1
        self.nonadj = [full & ~(mask | 1 << i) for i, mask in enumerate(g.adj)]
        # _accepted[d]: reach and far of the last accepted prefix of d vertices.
        self._accepted: list = [([], [])] + [None] * n

    def find(self, out: Sequence[int]) -> Optional[tuple[int, int]]:
        """The first shortcutting arc (u, v) as vertex indices, or None."""
        order = _topo_order(out)
        if order is None:
            raise OrientationError("shortcut search needs an acyclic orientation")
        nonadj = self.nonadj
        reach = [0] * len(out)
        far = [0] * len(out)
        for u in reversed(order):
            reach[u], far[u] = _reach_far(u, out[u], nonadj[u], reach, far)
            hit = out[u] & far[u]
            if hit:
                return u, next(_bits(hit))
        return None

    def prefix_free(self, out: Sequence[int]) -> bool:
        """Whether the orientation of vertices 0..k (``out``, k + 1 out-bitsets)
        is shortcut-free, given that the shortcut-free parent prefix on
        0..k-1 is the last one this method accepted with k bitsets.

        ``acyclic_outsets`` meets that contract: it checks each prefix after
        its parent was accepted and before any other prefix of the parent's
        length, and a one-vertex prefix has the empty parent.  Joining k
        changes the reach only of k and its ancestors, so every other vertex
        keeps its ``reach`` and ``far`` from the parent and cannot gain a
        shortcut.  The step recomputes k, then its ancestors in ascending
        ``reach`` popcount order: an arc u->w implies ``reach[u]`` strictly
        contains ``reach[w]``, so every descendant is done first.
        A shortcut at k is found before the parent's lists are copied, and
        a rejected prefix leaves ``_accepted`` untouched.

        As a prefix check it prunes soundly: a shortcut on a prefix stays a
        shortcut in every completion, so semi-transitivity is hereditary
        (Halldorsson-Kitaev-Pyatkin 2016).
        """
        k = len(out) - 1
        reach, far = self._accepted[k]
        nonadj = self.nonadj
        r, f = _reach_far(k, out[k], nonadj[k], reach, far)
        if out[k] & f:
            return False
        reach, far = reach + [r], far + [f]
        inward = self.graph.adj[k] & ((1 << k) - 1) & ~out[k]
        if inward:
            ancestors = [(reach[u].bit_count(), u) for u in range(k) if reach[u] & inward]
            if len(ancestors) > 1:
                ancestors.sort()  # popcount ties fall in index order
            for _, u in ancestors:
                reach[u], far[u] = _reach_far(u, out[u], nonadj[u], reach, far)
                if out[u] & far[u]:
                    return False
        self._accepted[k + 1] = reach, far
        return True

    def _witness(self, out: Sequence[int], u: int, v: int) -> ShortcutWitness:
        """The labelled path and missing pair behind the shortcutting arc u->v."""
        reach = [0] * len(out)
        for w in reversed(_topo_order(out)):
            reach[w] = 1 << w
            for z in _bits(out[w]):
                reach[w] |= reach[z]
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
    searcher = ShortcutSearcher(o.graph)
    arc = searcher.find(o.out)
    return None if arc is None else searcher._witness(o.out, *arc)


def is_semi_transitive(o: Orientation) -> bool:
    return is_acyclic(o) and ShortcutSearcher(o.graph).find(o.out) is None


def outs_transitive(out: Sequence[int]) -> bool:
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


def acyclic_outsets(
    g: Graph, prefix_ok: Optional[Callable[[list[int]], bool]] = None,
    pinned: Optional[Sequence[int]] = None,
) -> Iterator[tuple[int, ...]]:
    """Out-bitsets of every acyclic orientation, each exactly once.

    Vertices join in index order.  Vertex k points at a set S of its
    earlier neighbours and the rest point at k; that closes a cycle exactly
    when a member of S reaches an earlier neighbour outside S.  Deciding
    the earlier neighbours descendants-first (a descendant reaches fewer
    vertices) lets each one join S unless it reaches one already left out,
    so every branch completes and no orientation repeats.

    With ``prefix_ok``, a branch is dropped once the predicate rejects the
    orientation built on vertices 0..k (a list of k + 1 out-bitsets).  For
    a hereditary property, kept by every induced sub-orientation, such as
    semi-transitivity and transitivity, that loses nothing: every
    completion of the branch induces the rejected prefix.  The order is
    unchanged, so exactly the accepted orientations are yielded, in
    unpruned order, and a pruned decider's first hit is the unpruned
    scan's.  Prefixes reach the predicate in DFS preorder, on which
    ``ShortcutSearcher.prefix_free`` relies.  An accepted prefix of all n
    vertices is yielded as it stands.

    With ``pinned``, ``pinned[k]`` holds earlier neighbours of k whose edges
    must point at k.  Such a neighbour is decided like the others but never
    joins S, so exactly the orientations with every pinned arc are yielded,
    in unpruned order, and no prefix without them is built or checked.
    """
    n = len(g.vertices)
    adj = g.adj
    if n == 0:
        return iter([()])
    if pinned is None:
        pinned = [0] * n

    def extend(k: int, out: list[int], reach: list[int]) -> Iterator[tuple[int, ...]]:
        kbit = 1 << k
        back = adj[k] & (kbit - 1)
        choices = [0]
        decided = 0
        for _, b in sorted([(reach[b].bit_count(), b) for b in _bits(back)]):
            bit = 1 << b
            below = reach[b] & decided
            decided |= bit
            if pinned[k] & bit:
                continue
            nxt = []
            for s in choices:
                nxt.append(s)
                if not below & ~s:
                    nxt.append(s | bit)
            choices = nxt
        for s in choices:
            inward = back & ~s
            out_k = out + [s]
            m = inward
            while m:
                low = m & -m
                out_k[low.bit_length() - 1] |= kbit
                m ^= low
            if prefix_ok is not None and not prefix_ok(out_k):
                continue
            if k == n - 1:
                yield tuple(out_k)
                continue
            reach_k = kbit
            for j in _bits(s):
                reach_k |= reach[j]
            yield from extend(
                k + 1,
                out_k,
                [r | reach_k if r & inward else r for r in reach] + [reach_k],
            )

    return extend(0, [], [])


def outsets_shortcut_free(
    g: Graph, may_pass: Callable[[list[int]], bool], pinned: Optional[Sequence[int]] = None
) -> Iterator[tuple[tuple[int, ...], bool]]:
    """The acyclic orientations as ``(out, shortcut_free)`` from one walk of
    ``acyclic_outsets``, in its order, less those dropped under a prefix that
    has a shortcut and that ``may_pass`` rejects; ``pinned`` is passed on to
    the walk.

    The prefix predicate runs ``prefix_free`` only under a shortcut-free
    parent prefix, since every completion of a prefix keeps its shortcut,
    and records the verdict per depth; a prefix with a shortcut is kept
    exactly when ``may_pass`` accepts it.  So every shortcut-free
    orientation is yielded, and for a ``may_pass`` that every completion of
    a rejected prefix also fails, a dropped orientation fails both tests.
    """
    searcher = ShortcutSearcher(g)
    free = [True] * (len(g.vertices) + 1)

    def record(out: list[int]) -> bool:
        k = len(out)
        free[k] = free[k - 1] and searcher.prefix_free(out)
        return free[k] or may_pass(out)

    for out in acyclic_outsets(g, record, pinned):
        yield out, free[-1]


def count_acyclic_orientations(g: Graph) -> Optional[int]:
    """The number of acyclic orientations, counted without enumerating them,
    or None when ``g`` has more than COUNT_MAX_VERTICES vertices.

    Stanley (1973): a(G) = (-1)^n chi(-1), so with p_j the number of
    partitions of the vertices into j independent sets, a(G) = sum of
    (-1)^(n-j) j! p_j.  The partition polynomial of a vertex set S sums,
    over the independent sets I holding the lowest vertex of S, x times
    that of S - I; it is memoised on the vertex sets reached and kept as
    one int of 32-bit lanes, lane j holding p_j (at most Bell(14) < 2^28).
    At most 3^n / 2 terms, the edgeless graph's count.  A pruned search
    skips most orientations, so negative verdicts and full sweeps count here.
    """
    adj = g.adj
    n = len(adj)
    if n > COUNT_MAX_VERTICES:
        return None
    memo = {0: 1}

    def partitions(s: int) -> int:
        poly = memo.get(s)
        if poly is not None:
            return poly
        low = s & -s
        rest = s ^ low
        poly = 0
        # (left, free): the set left once the independent set chosen so far
        # is removed, and the vertices above its last member it may still take
        stack = [(rest, rest & ~adj[low.bit_length() - 1])]
        while stack:
            left, free = stack.pop()
            while free:
                b = free & -free
                free ^= b
                stack.append((left ^ b, free & ~adj[b.bit_length() - 1]))
            poly += partitions(left)
        memo[s] = poly = poly << 32
        return poly

    poly = partitions((1 << n) - 1)
    return sum((-1) ** (n - j) * factorial(j) * (poly >> 32 * j & 0xFFFFFFFF)
               for j in range(n + 1))


def _forces_a_reversal(adj: Sequence[int], within: int) -> bool:
    """Whether G[within] is not a comparability graph (Golumbic, Algorithmic
    Graph Theory and Perfect Graphs, ch. 5): some implication class holds an
    arc and its reverse.

    A path b-a-c with bc missing (ab Gamma ac) forces a->b exactly when
    a->c.  A union-find over the edges, each a two-bit mask, keeps for every
    non-root edge its parent and whether exactly one of the two points from
    its lower to its higher end; each such path ties two edges, and the
    first tie that contradicts the others is a conflict.  About sum of
    deg^2 steps.
    """
    up: dict[int, tuple[int, bool]] = {}
    todo = within
    while todo:
        a = todo & -todo
        todo ^= a
        bs = adj[a.bit_length() - 1] & within
        while bs:
            b = bs & -bs
            bs ^= b
            cs = bs & ~adj[b.bit_length() - 1]
            if not cs:
                continue
            # a->b is parity pb at the root of edge ab; a->c must match it.
            rb, pb = a | b, a < b
            while rb in up:
                rb, flip = up[rb]
                pb ^= flip
            while cs:
                c = cs & -cs
                cs ^= c
                rc, pc = a | c, a < c
                while rc in up:
                    rc, flip = up[rc]
                    pc ^= flip
                if rc != rb:
                    up[rc] = rb, pc ^ pb
                elif pc != pb:
                    return True
    return False


def _check_cap(g: Graph, max_vertices: int) -> None:
    if len(g.vertices) > max_vertices:
        raise CapExceededError(
            f"{len(g.vertices)} vertices exceeds the cap of {max_vertices}"
        )


def enumerate_acyclic_orientations(g: Graph) -> Iterator[Orientation]:
    """Every acyclic orientation exactly once.

    The public face of ``acyclic_outsets``, kept because it is the one
    public enumerator that applies the search cap.
    """
    _check_cap(g, DEFAULT_MAX_VERTICES)
    for out in acyclic_outsets(g):
        yield Orientation(g, out)


def _one_mirror_half(g: Graph, skip: int = 0) -> list[int]:
    """The pin of ``acyclic_outsets`` to one mirror half: u->k, where k is the
    first vertex with an earlier neighbour outside the ``skip`` mask and u
    the lowest such one; no pin when there is none.

    With nothing skipped, vertices 0..k-1 span no edge, so u, reaching only
    itself, is the first earlier neighbour k decides, and every choice with
    u->k precedes every choice with k->u: the unpinned stream is the half
    with u->k followed by the half with k->u, and reversing every arc maps
    each half onto the other.  For a property kept by that reversal, such
    as transitivity and semi-transitivity (``sweep_orientations``), the
    unpruned scan's first hit has u->k, since a first hit with k->u would
    come after its own reverse, which is also a hit.  So the first hit is
    kept and a negative walks one mirror half.
    """
    pinned = [0] * len(g.adj)
    for k, mask in enumerate(g.adj):
        earlier = mask & ((1 << k) - 1) & ~skip
        if earlier:
            pinned[k] = earlier & -earlier
            break
    return pinned


def _zero_source_pin(g: Graph) -> list[int]:
    """The pin of ``acyclic_outsets`` that keeps vertex 0 a source and walks
    one mirror half of the rest: every edge at 0 points away from 0, and
    u->k for the first edge decided away from 0 (``_one_mirror_half`` with
    vertex 0 skipped).

    The pin keeps every semi-transitivity verdict.  A representable graph
    has a uniform representant (Kitaev-Pyatkin 2008); a cyclic shift
    starting with vertex 0 still represents, and its first copies order a
    semi-transitive orientation (Halldorsson-Kitaev-Pyatkin 2016) with 0 a
    source.  Reversing that word and moving its last 0 to the front gives a
    second such word (alternating letters keep the order of their first
    copies in their last ones), whose orientation reverses every edge away
    from 0.  So one of the two has u->k: every uniform representant has one
    of the same multiplicity that starts with 0 and whose first copies
    order a pinned orientation.  A hard negative walks about a sixth of the
    tree.  Transitive orientations need no source at 0.
    """
    return [pin | (mask & 1) for pin, mask in zip(_one_mirror_half(g, 1), g.adj)]


def _non_comparability_neighbourhood(adj: Sequence[int]) -> bool:
    """Whether some vertex's neighbourhood is not a comparability graph, which
    rules out a semi-transitive orientation (Kitaev-Pyatkin 2008: G[N[v]] is
    then representable with v dominant).

    Only a vertex with at least 5 neighbours can fail (every graph on at most
    4 vertices is a comparability graph), and only one whose closed
    neighbourhood lies inside no other's, the lowest of closed twins kept:
    with N[v] inside N[u], G[N(v)] is induced in the cone G[N[u]], which is
    a comparability graph when G[N(u)] is.  The filter pays for itself: on
    random and witness graphs of 7 and 8 vertices, most of them positives
    that scan every kept vertex, it took 10-13 us a graph against 16-18 us
    for the scan of every big vertex (2-core machine, Python 3.11).
    """
    big = 0
    for v, mask in enumerate(adj):
        if mask.bit_count() >= 5:
            big |= 1 << v
    # A closed neighbourhood holding that of a big vertex is big itself.
    covered = 0
    todo = big
    while todo:
        v = todo & -todo
        todo ^= v
        closed_v = adj[v.bit_length() - 1] | v
        later = closed_v & todo
        while later:
            u = later & -later
            later ^= u
            closed_u = adj[u.bit_length() - 1] | u
            if not closed_u & ~closed_v:
                covered |= u
            elif not closed_v & ~closed_u:
                covered |= v
    todo = big & ~covered
    while todo:
        v = todo & -todo
        todo ^= v
        if _forces_a_reversal(adj, adj[v.bit_length() - 1]):
            return True
    return False


def find_semi_transitive_orientation(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> Optional[Orientation]:
    """Exhaustive search; None means no semi-transitive orientation exists.

    A neighbourhood that is not a comparability graph refutes at once
    (``_non_comparability_neighbourhood``); otherwise the search is pruned
    by the incremental shortcut check and returns the unpruned scan's first
    hit among the orientations ``_zero_source_pin`` keeps, whose docstring
    shows that this keeps every verdict.
    """
    _check_cap(g, max_vertices)
    if _non_comparability_neighbourhood(g.adj):
        return None
    out = next(acyclic_outsets(g, ShortcutSearcher(g).prefix_free, _zero_source_pin(g)), None)
    return None if out is None else Orientation(g, out)


def is_word_representable(g: Graph) -> bool:
    """A graph is word-representable iff it has a semi-transitive orientation."""
    return find_semi_transitive_orientation(g) is not None


def is_comparability(g: Graph) -> Optional[Orientation]:
    """A transitive orientation if one exists (comparability graph), else None.

    Implication classes refute a non-comparability graph at once
    (``_forces_a_reversal``); otherwise the search is pruned by
    transitivity over one mirror half (``_one_mirror_half``) and returns
    the unpruned scan's first hit.
    """
    _check_cap(g, DEFAULT_MAX_VERTICES)
    if _forces_a_reversal(g.adj, (1 << len(g.adj)) - 1):
        return None
    out = next(acyclic_outsets(g, outs_transitive, _one_mirror_half(g)), None)
    return None if out is None else Orientation(g, out)


# --- odd closed walks without triangular chords ----------------------------


def find_noncomparability_witness(g: Graph, max_len: int) -> Optional[tuple[str, ...]]:
    """The label-least shortest chordless odd closed walk of at most
    ``max_len`` steps, or None, in about (2|E|)^2 max_len bit steps.

    A graph is a comparability graph iff every odd closed walk (consecutive
    pairs are edges and no ordered consecutive pair repeats, wrap included)
    has a triangular chord, so a chordless one certifies that no transitive
    orientation exists.  It is a closed walk of the arc digraph: one node
    per ordered edge, and a step (x, y) -> (y, z) when y ~ z and xz is not
    an edge.  One of least odd length repeats no arc, or it would split
    into a shorter odd closed walk.
    Rotated to its least vertex s, a walk starts with an arc (s, t), s < t,
    and one through the first such arc to close at the least odd k never
    dips below s, or a lesser start would close.
    """
    if max_len < 5 or max_len % 2 == 0:
        raise GraphError("walk length bound must be odd and at least 5")
    h = Graph.from_edges(sorted(g.vertices), g.edges())  # indices in label order
    n, adj = len(h.vertices), h.adj
    # Arc (x, y) is bit y * n + x, so pred[a], the arcs (w, x) with a step
    # to a = (x, y), the reversal (y, x) included, is one shifted mask.
    pred = [(adj[x] & ~adj[y]) << x * n for y in range(n) for x in range(n)]

    def back_step(layer: int) -> int:
        prev = 0
        while layer:
            low = layer & -layer
            prev |= pred[low.bit_length() - 1]
            layer ^= low
        return prev

    def read_off(a: int, k: int) -> tuple[str, ...]:
        layers = [1 << a]
        for _ in range(k - 1):
            layers.append(back_step(layers[-1]))
        walk = [a]
        for layer in reversed(layers[1:]):
            walk.append(next(b for b in _bits(layer) if pred[b] >> walk[-1] & 1))
        return tuple(h.vertices[b % n] for b in walk)

    # back[a]: the arcs exactly ``steps`` steps before start arc a, grown lazily.
    back = {t * n + s: 1 << t * n + s for s in range(n) for t in _bits(adj[s]) if s < t}
    steps = 0
    for k in range(5, min(max_len, 2 * h.edge_count) + 1, 2):
        for a, layer in back.items():
            for _ in range(k - steps):
                layer = back_step(layer)
            back[a] = layer
            if layer >> a & 1:
                return read_off(a, k)
        steps = k
    return None


def representable_via_dominant(g: Graph, x: str) -> bool:
    """Decide representability through a dominant vertex.

    With x adjacent to everything else, the graph is word-representable iff
    the rest is permutationally representable, i.e. a comparability graph.
    Only the yes/no is needed, so the implication classes of the rest
    decide it (``_forces_a_reversal``) in polynomial time, with no search
    and so no search cap.
    """
    if g.degree(x) != len(g.vertices) - 1:
        raise OrientationError(f"{x!r} is not adjacent to all other vertices")
    return not _forces_a_reversal(g.adj, g.adj[g.index(x)])


# --- bounded-multiplicity word search --------------------------------------


def find_uniform_word(
    g: Graph, k: int, orientation: Orientation | Sequence[int] | None = None
) -> Optional[Word]:
    """Backtracking search for a k-uniform word representing g.

    The word grows letter by letter in vertex order, its alternation state
    kept by ``words._advance``, the step verification uses.  A letter may
    repeat only after all its graph neighbors have appeared since its
    previous occurrence, and every non-adjacent pair must split before both
    letters run out.  Uniform words may be rotated freely, so the first
    position is pinned to the first vertex.

    With an ``orientation`` (an ``Orientation`` of g or its out-bitsets),
    the search keeps only words whose first copies order it: a letter's
    first copy goes only after the first copies of all its in-neighbours.
    The first letter is still vertex 0, so there is no such word unless 0
    is a source.  It is the same search with one more check, and it returns
    the first word of the unguided search's order that follows the
    orientation.  Raises OrientationError when the orientation belongs to
    another graph, or when the out-bitsets are no orientation of g
    (``Orientation``).
    """
    n = len(g.vertices)
    if n == 0:
        raise GraphError("need at least one vertex")
    if k < 1:
        raise GraphError("multiplicity must be positive")
    adj = g.adj
    full = (1 << n) - 1
    lanes = _lanes(n)
    nonadj = [full & ~adj[i] & ~(1 << i) for i in range(n)]
    # inward[i]: the letters whose first copies must precede i's
    inward = [0] * n
    if orientation is not None:
        if not isinstance(orientation, Orientation):
            orientation = Orientation(g, tuple(orientation))
        elif (orientation.graph.vertices, orientation.graph.adj) != (g.vertices, adj):
            raise OrientationError("the orientation belongs to another graph "
                                   "(other vertices, vertex order or edges)")
        for j, mask in enumerate(orientation.out):
            for i in _bits(mask):
                inward[i] |= 1 << j
    word: list[int] = []
    remaining = [k] * n

    def search(since: int, split: list[int], seen: int) -> bool:
        if len(word) == n * k:
            return True
        for i in range(n) if word else (0,):
            # adj[i] has n bits, so the lanes above i's need no mask
            if not remaining[i] or inward[i] & ~seen or adj[i] & ~(since >> i * n):
                continue
            remaining[i] -= 1
            word.append(i)
            since_i, split_i = _advance(since, split, i, n, lanes)
            # Once i is used up, a pair with i that has not split ends its
            # restriction with i, so it needs two more copies of the other,
            # which split it: a complete word has split every such pair.
            stuck = 0 if remaining[i] else nonadj[i] & ~split_i[i]
            if (all(remaining[j] > 1 for j in _bits(stuck))
                    and search(since_i, split_i, seen | 1 << i)):
                return True
            remaining[i] += 1
            word.pop()
        return False

    if search((1 << n * n) - 1, [0] * n, 0):
        return Word(tuple(g.vertices[i] for i in word))
    return None


def bounded_representation_number(
    g: Graph, max_k: int = DEFAULT_MAX_UNIFORMITY
) -> Optional[int]:
    """Least multiplicity k <= max_k admitting a k-uniform representing word.

    None means no such word within the bound, which does not by itself
    disprove representability.  The search is capped at
    WORD_SEARCH_MAX_VERTICES vertices and 1 <= max_k <=
    DEFAULT_MAX_UNIFORMITY, and needs at least one vertex.  Once k = 1
    fails (complete graphs never get past it), a neighbourhood that is not
    a comparability graph (``_non_comparability_neighbourhood``) refutes
    before the longer searches; within the vertex cap that scan rejects
    exactly the graphs with no representing word, the labelled copies of W5.

    The longer searches are guided.  They walk the semi-transitive decider's
    pinned tree, run the guided k = 2 search on each orientation, and try
    k = 3 only on the orientations walked.  That is exact: by the argument
    in ``_zero_source_pin``'s docstring, a k-uniform representant starting
    with 0 has first copies ordering a pinned orientation, and the guided
    search on that orientation finds a word.

    Isolated vertices stay out of those searches.  With k >= 2, a k-uniform
    word w of the rest gives w x^k for each isolated x (each x^k alternates
    with nothing), and G's word restricted to the rest is one of the rest;
    so the rest alone decides every k >= 2, and an edgeless graph that
    fails k = 1 has number 2.
    """
    _check_cap(g, WORD_SEARCH_MAX_VERTICES)
    if max_k > DEFAULT_MAX_UNIFORMITY:
        raise CapExceededError(
            f"multiplicity bound {max_k} exceeds {DEFAULT_MAX_UNIFORMITY}"
        )
    if max_k < 1:
        raise GraphError(f"multiplicity bound {max_k} must be at least 1")
    if not g.vertices:
        raise GraphError("need at least one vertex")
    if find_uniform_word(g, 1) is not None:
        return 1
    if max_k == 1 or _non_comparability_neighbourhood(g.adj):
        return None
    rest = g if all(g.adj) else g.induced(v for v, mask in zip(g.vertices, g.adj) if mask)
    if not rest.vertices:
        return 2
    walked = []
    for out in acyclic_outsets(rest, ShortcutSearcher(rest).prefix_free, _zero_source_pin(rest)):
        if find_uniform_word(rest, 2, out) is not None:
            return 2
        walked.append(out)
    if max_k == 3 and any(find_uniform_word(rest, 3, out) is not None for out in walked):
        return 3
    return None
