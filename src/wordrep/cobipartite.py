"""Structural test for semi-transitivity of co-bipartite orientations.

An orientation of a two-clique graph is semi-transitive exactly when

* each clique is oriented transitively (so it has a unique source-to-sink
  order),
* every vertex relates to the opposite clique's order in one of three
  shapes: all cross edges outgoing into a consecutive run (type A), all
  incoming from a consecutive run (type B), or incoming from a prefix that
  includes the opposite source and outgoing into a suffix that includes the
  opposite sink (type C), and
* three cross-pattern conditions hold: no directed A/B pair shares a cross
  neighbor (lemma 4.1, ``check_condition_ab``), two four-vertex patterns
  force their diagonals (lemma 4.2, ``check_condition_quad``), and type C
  boundaries are not straddled (lemma 4.3, ``check_condition_typec``).

This module holds the label-level API over that characterization, its
index-level core, and the sweep that checks it against the generic
shortcut test.  Each part, and each argument it relies on, has one home:

* partition validation and cross neighbors, once per graph: ``_cliques``;
* the typing rule, one pass that fills in the rank masks and stops at the
  first Invalid vertex, or types every vertex for the label API: ``_typing``;
* lemma 4.2 as one rank-mask test per clique pair: ``_quads_hold``;
* the core, and why it skips lemmas 4.1 and 4.3: ``_failed_stage``;
* the labelled verdict with its acyclicity stage: ``is_semi_transitive_cobip``;
* the restriction to each prefix, and why meeting the newest vertex first
  changes no verdict: ``_prefix_cliques``;
* the heredity of the core's stages: ``_prefix_may_pass``;
* path verdicts flagged along one pruned walk: ``_pruned_walk``;
* a sampled sweep's draws, the orders ``Random(seed).sample`` gives, and
  why one pass over the generator's bits draws them: ``_drawn``;
* a sampled sweep walking one mirror half or searching, and both oracles
  surviving reversal, which halves every walk: ``sweep_orientations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from random import Random
from typing import Iterator, Optional

from .graphs import CoBipartitePartition, Graph, GraphError, _bits
from .orientations import (
    COUNT_MAX_VERTICES,
    CapExceededError,
    Orientation,
    ShortcutSearcher,
    _one_mirror_half,
    acyclic_outsets,
    count_acyclic_orientations,
    is_acyclic,
)

DEFAULT_SAMPLE_THRESHOLD = 200_000


class NonTransitiveCliqueError(ValueError):
    """The orientation induces a cyclic tournament on a clique."""


@dataclass(frozen=True)
class CliqueOrder:
    """Vertices of one clique, topologically sorted from source to sink."""

    vertices: tuple[str, ...]


@dataclass(frozen=True)
class VertexTypeInfo:
    """How a vertex's cross edges sit against the opposite clique's order.

    ``interval`` is filled for types A and B (the consecutive run of cross
    neighbors, possibly empty).  ``source_group``/``sink_group`` and the
    ``boundary`` pair (last in-neighbor, first out-neighbor) are filled for
    type C.
    """

    vertex: str
    tag: str  # "A", "B", "C" or "Invalid"
    interval: tuple[str, ...] = ()
    source_group: tuple[str, ...] = ()
    sink_group: tuple[str, ...] = ()
    boundary: Optional[tuple[str, str]] = None


def _cliques(g: Graph, partition: CoBipartitePartition) -> tuple:
    """Validate the partition against ``g``; return its sides and cross edges.

    Each side is (clique, other clique, clique mask, other mask), first for
    clique A and then for clique B.  ``cross[v]`` is the bitset of v's
    neighbors in the opposite clique and ``cross_lists[v]`` lists them.
    Raises GraphError on a bad partition.  The result is kept on ``g`` per
    partition, so a pair is validated once; it is all tuples, so no caller
    can change what the next one gets.
    """
    memo = g._by_partition
    if partition in memo:
        return memo[partition]
    a, b = map(tuple, partition.validate(g))
    mask_a, mask_b = (sum(1 << i for i in idx) for idx in (a, b))
    sides = (a, b, mask_a, mask_b), (b, a, mask_b, mask_a)
    cross = [0] * len(g.vertices)
    for clique, _, _, other_mask in sides:
        for v in clique:
            cross[v] = g.adj[v] & other_mask
    memo[partition] = found = sides, tuple(cross), tuple(tuple(_bits(c)) for c in cross)
    return found


def _ranks(out: tuple[int, ...], sides: tuple) -> Optional[list[int]]:
    """The rank bit of every clique vertex by index, or None when a clique is
    oriented cyclically.

    A vertex with r successors in its own clique has bit r, so each sink has
    bit 0; the cliques are disjoint, so one list serves both.  A tournament
    is transitive exactly when its out-degrees are all distinct.
    """
    rank = [0] * len(out)
    for clique, _, mask, _ in sides:
        seen = 0
        for i in clique:
            rank[i] = bit = 1 << (out[i] & mask).bit_count()
            seen |= bit
        if seen != (1 << len(clique)) - 1:
            return None
    return rank


def _typing(out: tuple[int, ...], cliques: tuple, rank: list[int], outrank: list[int],
            inrank: list[int], tags: Optional[list] = None) -> Optional[int]:
    """Type the clique vertices against the opposite clique; return the first
    Invalid one in ``cliques`` order, or None when every vertex types.

    ``rank`` holds the rank bits by vertex index (``_ranks``).  The pass
    fills ``outrank`` and ``inrank`` by vertex index with the rank bits of
    the opposite vertices that each vertex it types sends to and receives
    from, read off its cross neighbors alone: an ``Orientation`` directs
    every edge exactly once, so the cross neighbors a vertex does not send
    to are those it receives from.  With ``tags``, a list by vertex index,
    the pass instead types every vertex, fills in its tag ("A", "B", "C"
    or "Invalid") and returns None, for ``_typed``.  A run of set bits is
    one that adding its lowest bit clears.
    """
    sides, _, cross_lists = cliques
    for clique, other, _, _ in sides:
        above_source = 1 << len(other)
        for v in clique:
            outv = out[v]
            outs = ins = 0
            for w in cross_lists[v]:
                if outv >> w & 1:
                    outs |= rank[w]
                else:
                    ins |= rank[w]
            outrank[v], inrank[v] = outs, ins
            if not ins:
                tag = "Invalid" if outs & (outs + (outs & -outs)) else "A"
            elif not outs:
                tag = "Invalid" if ins & (ins + (ins & -ins)) else "B"
            elif ins + (ins & -ins) == above_source and not outs & (outs + 1):
                tag = "C"  # a run of in-neighbors from the source, of out-neighbors to the sink
            else:
                tag = "Invalid"
            if tags is not None:
                tags[v] = tag
            elif tag == "Invalid":
                return v
    return None


# The literal lemma 4.2: its violations as index tuples, in a fixed order,
# which ``_describe42`` labels for both the report and
# ``check_condition_quad``.  The core decides the lemma by ``_quads_hold``
# instead, and the tests keep this loop as its oracle.  Lemmas 4.1 and 4.3
# run only in their label-level checks, which report their violations
# directly.


def _lemma42(out: tuple[int, ...], cliques: tuple) -> Iterator[tuple]:
    for clique, other, _, other_mask in cliques[0]:
        for x in clique:
            outx = out[x]
            for y in clique:
                if not outx >> y & 1:
                    continue
                outy = out[y]
                for s in other:
                    outs = out[s]
                    # one and two mask the t (with s->t) of pattern 1 (s->x,
                    # y->t) and pattern 2 (y->s, x->t); the t loop below runs,
                    # in clique order, only when one of them misses a diagonal
                    one = outs & outy & other_mask if outs >> x & 1 else 0
                    two = outs & outx & other_mask if outy >> s & 1 else 0
                    if not (one & ~outx or one and not outs >> y & 1
                            or two and not outx >> s & 1 or two & ~outy):
                        continue
                    for t in other:
                        if one >> t & 1:
                            if not outx >> t & 1:
                                yield 1, x, y, s, t, x, t
                            if not outs >> y & 1:
                                yield 1, x, y, s, t, s, y
                        if two >> t & 1:
                            if not outx >> s & 1:
                                yield 2, x, y, s, t, x, s
                            if not outy >> t & 1:
                                yield 2, x, y, s, t, y, t


def _describe42(labels: tuple[str, ...], out: tuple[int, ...], cliques: tuple) -> list[dict]:
    """Every lemma 4.2 violation of ``out`` as a labelled report entry."""
    return [{"condition": f"quad-pattern-{pattern}",
             "x": labels[x], "y": labels[y], "s": labels[s], "t": labels[t],
             "requires": f"{labels[tail]}->{labels[head]}"}
            for pattern, x, y, s, t, tail, head in _lemma42(out, cliques)]


def _quads_hold(cliques: tuple, rank: list[int], outrank: list[int],
                inrank: list[int]) -> bool:
    """Whether lemma 4.2 holds, decided from the rank masks of ``_typing``
    with a few bit operations per ordered clique pair.

    ``rank`` must come from ``_ranks`` (both cliques transitive), and
    ``outrank`` and ``inrank`` must be filled for every clique vertex.  A
    clique pair is x->y exactly when x has the higher rank bit, and s->t
    in the opposite clique exactly when s does.  Write Ox and Ix for the
    bits of the opposite vertices that x sends to and receives from; a
    bit outside Ox is a reversed arc or a non-edge, which ``_lemma42``
    both count as missing.  Pattern 1 (s->x, y->t) takes s from Ix and t
    from Oy below s, and needs x->t and s->y: t in Ox and s in Iy.  So it
    fails exactly when some s in Ix outside Iy lies above the lowest bit
    of Oy (a t below it exists), or some t in Oy outside Ox lies below the
    highest bit of Ix (an s above it exists).  Pattern 2 (y->s, x->t)
    takes s from Oy and t from Ox below s, and needs x->s and y->t: s in
    Ox and t in Oy.  So it fails exactly when some s in Oy outside Ox lies
    above the lowest bit of Ox, or some t in Ox outside Oy lies below the
    highest bit of Oy.  Those are the quads ``_lemma42`` walks and the
    diagonals it checks, so the two agree on every orientation with
    transitive cliques, cyclic or not, and whether or not it types.
    """
    for clique, _, _, _ in cliques[0]:
        for x in clique:
            ox, ix, rank_x = outrank[x], inrank[x], rank[x]
            below_ix = (1 << ix.bit_length()) - 1 >> 1
            above_ox = ~((ox & -ox) * 2 - 1)
            for y in clique:
                if rank[y] >= rank_x:
                    continue
                oy, iy = outrank[y], inrank[y]
                if (ix & ~iy & ~((oy & -oy) * 2 - 1) or oy & ~ox & below_ix  # pattern 1
                        or oy & ~ox & above_ox or ox & ~oy & (1 << oy.bit_length()) - 1 >> 1):
                    return False
    return True


def _failed_stage(out: tuple[int, ...], cliques: tuple) -> Optional[str]:
    """The first failing stage of an orientation, or None when it passes.

    The index-level core of ``is_semi_transitive_cobip``: ``_ranks``, then
    ``_typing``, stopping at its first Invalid vertex in the vertex order
    of ``cliques``, and ``_quads_hold`` on the rank masks the typing
    filled.  ``cliques`` comes from ``_cliques`` (a validated partition)
    or ``_prefix_cliques``, and ``out`` must be the out-bitsets of an
    ``Orientation`` (``_typing``) and acyclic, as the sweep's are: the
    core checks no cycle, and a directed 4-cycle passes every stage.

    Lemmas 4.1 and 4.3 cannot fail once typing passes, so the core skips
    them.  Each of their violations closes a directed triangle: x->z->y->x
    for lemma 4.1; x->y->s->x for typec-successor-a and -c, and x->t->y->x
    for typec-predecessor-b and -c, where (s, t) is x's boundary.  So none
    occurs on acyclic input.  Nor on cyclic input with every vertex typed:
    the triangle's vertex in the opposite clique receives from the later
    and sends to the earlier vertex of a clique pair, which no type allows.
    """
    rank = _ranks(out, cliques[0])
    if rank is None:
        return "clique-transitivity"
    outrank, inrank = [0] * len(out), [0] * len(out)
    if _typing(out, cliques, rank, outrank, inrank) is not None:
        return "typing"
    if not _quads_hold(cliques, rank, outrank, inrank):
        return "lemma42"
    return None


# --- label-level API over the index core ---------------------------------------


def _cyclic_clique_error(out: tuple[int, ...], cliques: tuple,
                         partition: CoBipartitePartition) -> NonTransitiveCliqueError:
    """The error naming the first clique that ``out`` orients cyclically."""
    labels = next(labels for side, labels
                  in zip(cliques[0], (partition.clique_a, partition.clique_b))
                  if _ranks(out, [side]) is None)
    return NonTransitiveCliqueError(f"clique {labels} is not oriented transitively")


def _typed(o: Orientation, partition: CoBipartitePartition) -> tuple[tuple, tuple]:
    """``_cliques``'s result and the whole typing (rank, tags, outrank,
    inrank), each a list by vertex index.

    Raises GraphError on a bad partition and NonTransitiveCliqueError when a
    clique is oriented cyclically.
    """
    cliques = _cliques(o.graph, partition)
    rank = _ranks(o.out, cliques[0])
    if rank is None:
        raise _cyclic_clique_error(o.out, cliques, partition)
    n = len(o.out)
    tags, outrank, inrank = [None] * n, [0] * n, [0] * n
    _typing(o.out, cliques, rank, outrank, inrank, tags)
    return cliques, (rank, tags, outrank, inrank)


def clique_order(o: Orientation, clique: tuple[str, ...]) -> CliqueOrder:
    """Unique source-to-sink order of a transitively oriented clique.

    Raises GraphError when the labels do not induce a complete subgraph and
    NonTransitiveCliqueError when the clique is oriented cyclically.
    """
    g = o.graph
    if not g.is_clique(clique):
        raise GraphError(f"{clique} does not induce a complete subgraph")
    idx = [g.index(v) for v in clique]
    rank = _ranks(o.out, [(idx, [], sum(1 << i for i in idx), 0)])  # a side with no opposite
    if rank is None:
        raise NonTransitiveCliqueError(f"clique {clique} is not oriented transitively")
    return CliqueOrder(tuple(g.vertices[i] for i in sorted(idx, key=rank.__getitem__,
                                                             reverse=True)))


def classify_vertex(o: Orientation, partition: CoBipartitePartition, v: str) -> VertexTypeInfo:
    """Type a vertex as A, B or C against the opposite clique's full order.

    A vertex with no cross edges is reported as type A with an empty
    interval (it satisfies both A and B vacuously; A is the fixed
    tie-break).  Anything that fits no shape is Invalid, which is a value
    rather than an error.  Raises GraphError on a bad partition or an
    unknown vertex, and NonTransitiveCliqueError when a clique is oriented
    cyclically.
    """
    (sides, _, _), (rank, tags, outrank, inrank) = _typed(o, partition)
    labels, i = o.graph.vertices, o.graph.index(v)
    other = next(other for _, other, mask, _ in sides if mask >> i & 1)
    order = sorted(other, key=rank.__getitem__, reverse=True)
    outs, ins = (tuple(labels[w] for w in order if rank[w] & m) for m in (outrank[i], inrank[i]))
    tag = tags[i]
    if tag == "C":
        return VertexTypeInfo(v, "C", source_group=ins, sink_group=outs,
                              boundary=(ins[-1], outs[0]))
    if tag == "Invalid":
        return VertexTypeInfo(v, "Invalid")
    return VertexTypeInfo(v, tag, interval=outs if tag == "A" else ins)


def check_condition_ab(o: Orientation, partition: CoBipartitePartition) -> list[dict]:
    """Directed B-to-A pairs within a clique must not share a cross neighbor.

    For x of type A and y of type B with y->x, no vertex z opposite may be
    adjacent to both.  ``_failed_stage`` shows why no verdict needs it.
    """
    (sides, cross, _), (_, tags, _, _) = _typed(o, partition)
    labels, out = o.graph.vertices, o.out
    found = []
    for clique, _, _, _ in sides:
        for x in clique:
            if tags[x] != "A":
                continue
            for y in clique:
                common = cross[x] & cross[y]
                if tags[y] == "B" and out[y] >> x & 1 and common:
                    found.append({"condition": "ab-common-neighbor", "x": labels[x], "y": labels[y],
                                  "common": sorted(labels[i] for i in _bits(common))})
    return found


def check_condition_quad(o: Orientation, partition: CoBipartitePartition) -> list[dict]:
    """Four-vertex patterns across the cliques force both diagonals.

    For x->y in one clique and s->t in the other:
    pattern 1: with s->x and y->t present, x->t and s->y must be present;
    pattern 2: with y->s and x->t present, x->s and y->t must be present.
    A missing or reversed diagonal would complete a shortcut or a cycle.
    """
    cliques, _ = _typed(o, partition)
    return _describe42(o.graph.vertices, o.out, cliques)


def check_condition_typec(o: Orientation, partition: CoBipartitePartition) -> list[dict]:
    """Type C boundaries must not be straddled by same-clique companions.

    For a type C vertex x with boundary (s, t): a successor y (x->y) may
    be neither a type A vertex adjacent to both s and t, nor a type C
    vertex whose sink group contains s; a predecessor y (y->x) may be
    neither a type B vertex adjacent to both s and t, nor a type C vertex
    whose source group contains t.  ``_failed_stage`` shows why no verdict
    needs it.
    """
    (sides, cross, _), (rank, tags, outrank, inrank) = _typed(o, partition)
    labels, out = o.graph.vertices, o.out
    found = []
    for clique, other, _, _ in sides:
        for x in clique:
            if tags[x] != "C":
                continue
            # boundary: last in-neighbor s and first out-neighbor t, by rank
            last_in, first_out = inrank[x] & -inrank[x], 1 << outrank[x].bit_length() >> 1
            s = next(w for w in other if rank[w] == last_in)
            t = next(w for w in other if rank[w] == first_out)
            both = 1 << s | 1 << t
            for y in clique:
                if y == x:
                    continue
                ytag, straddles = tags[y], cross[y] & both == both
                if out[x] >> y & 1:
                    fails = {"typec-successor-a": ytag == "A" and straddles,
                             "typec-successor-c": ytag == "C" and outrank[y] & last_in}
                else:  # a clique pair is an edge, directed one way
                    fails = {"typec-predecessor-b": ytag == "B" and straddles,
                             "typec-predecessor-c": ytag == "C" and inrank[y] & first_out}
                found += ({"condition": condition, "x": labels[x], "y": labels[y],
                           "boundary": [labels[s], labels[t]]}
                          for condition, fail in fails.items() if fail)
    return found


@dataclass(frozen=True)
class CharacterizationReport:
    semi_transitive: bool
    failed_stage: Optional[str]  # clique-transitivity, acyclicity, typing or lemma42
    details: tuple = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "semiTransitive": self.semi_transitive,
            "failedStage": self.failed_stage,
            "details": list(self.details),
        }


def is_semi_transitive_cobip(
    o: Orientation, partition: CoBipartitePartition
) -> tuple[bool, CharacterizationReport]:
    """Staged structural verdict on a co-bipartite orientation.

    True exactly when both cliques are transitive, the orientation is
    acyclic, every vertex types as A/B/C, and the three cross-pattern
    conditions are all clean.  The report names the first failing stage and
    lists all of its violations; later stages are skipped because their
    conditions presume an acyclic, fully typed orientation.  Raises
    GraphError on a bad partition.
    """
    g, out = o.graph, o.out
    cliques = _cliques(g, partition)
    stage = _failed_stage(out, cliques)
    if stage != "clique-transitivity" and not is_acyclic(o):
        return False, CharacterizationReport(False, "acyclicity",
                                             ("the orientation has a directed cycle",))
    if stage is None:
        return True, CharacterizationReport(True, None)
    if stage == "clique-transitivity":
        details = (str(_cyclic_clique_error(out, cliques, partition)),)
    elif stage == "typing":
        _, (_, tags, _, _) = _typed(o, partition)
        invalid = sorted(g.vertices[v] for v, tag in enumerate(tags) if tag == "Invalid")
        details = tuple({"vertex": v} for v in invalid)
    else:
        details = tuple(_describe42(g.vertices, out, cliques))
    return False, CharacterizationReport(False, stage, details)


# --- dual-oracle sweep ------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    orientations: int
    semi_transitive: int
    disagreements: tuple[dict, ...]
    sampled: bool
    seed: Optional[int]
    orders_examined: int

    def to_json(self) -> dict:
        return {
            "orientations": self.orientations,
            "semiTransitive": self.semi_transitive,
            "disagreements": list(self.disagreements),
            "sampled": self.sampled,
            "seed": self.seed,
            "ordersExamined": self.orders_examined,
        }


def _prefix_cliques(cliques: tuple) -> list[tuple]:
    """``_cliques``'s result restricted to vertices 0..k, for every k, ordered
    so that the core meets vertex k first.

    Entry k has the shape of ``_cliques``'s result for the subgraph induced
    on vertices 0..k under the partition restricted to them, so the stage
    functions run on a prefix's out-bitsets as they stand.  Each restricted
    tuple keeps its clique's vertex set, but the side opposite k comes
    first, since its vertices type against k's clique, whose ranks k's
    arrival shifts, and k comes first within its own clique, whose other
    vertices type as in the parent prefix.  No verdict and no count
    changes: each stage's verdict is a conjunction over clique vertices or
    quads, which no order changes, so neither does the first failing stage
    that ``_prefix_may_pass`` reads.  The order only decides how soon a
    failure is met.
    """
    sides, cross, _ = cliques
    restricted = []
    for k in range(len(cross)):
        keep = (1 << k + 1) - 1
        clique, other, mask, other_mask = sides[0] if sides[0][2] >> k & 1 else sides[1]
        mine = (k, *(v for v in clique if v < k))
        theirs = tuple(w for w in other if w < k)
        kept = ((theirs, mine, other_mask & keep, mask & keep),
                (mine, theirs, mask & keep, other_mask & keep))
        cross_k = tuple(c & keep for c in cross[:k + 1])
        restricted.append((kept, cross_k, tuple(tuple(_bits(c)) for c in cross_k)))
    return restricted


def _prefix_may_pass(out: list[int], prefix_cliques: list[tuple]) -> bool:
    """Whether the orientation of vertices 0..k (``out``, k + 1 out-bitsets)
    passes the structural core on the subgraph it orients; ``prefix_cliques``
    comes from ``_prefix_cliques``.

    A rejected prefix fails the core in every completion, since each of the
    core's three stages fails hereditarily.  A cyclic clique stays cyclic.
    A valid typing restricts to a valid typing of any vertex subset: a run
    stays a run, the prefix from the source stays a prefix and the suffix
    to the sink stays a suffix, and a type C vertex whose in- or out-side
    empties becomes type A or B; so an Invalid vertex stays Invalid.  A
    lemma 4.2 violation reads only the arcs among its four vertices, which
    every completion keeps.  Lemmas 4.1 and 4.3 have no such proof, so the
    core must not run them.
    """
    return _failed_stage(out, prefix_cliques[len(out) - 1]) is None


def _pruned_walk(g: Graph, cliques: tuple, pinned: Optional[list[int]] = None
                 ) -> Iterator[tuple[tuple[int, ...], bool]]:
    """The acyclic orientations with the ``pinned`` arcs (all by default)
    as ``(out, shortcut_free)``, in the order of one ``acyclic_outsets``
    walk, less those that both oracles reject on a prefix.

    ``prefix_free`` runs only under a shortcut-free parent prefix, since
    every completion keeps a shortcut, and its verdict is recorded per
    depth; the walk is depth-first, so the flags hold the yielded
    orientation's own prefixes.  A prefix with a shortcut is kept exactly
    when ``_prefix_may_pass`` accepts it.  So every shortcut-free
    orientation is yielded, and a dropped one fails both oracles: it keeps
    its prefix's shortcut, and ``_prefix_may_pass``'s rejections are
    hereditary.
    """
    searcher = ShortcutSearcher(g)
    prefix_cliques = _prefix_cliques(cliques)
    free = [True] * (len(g.vertices) + 1)

    def record(out: list[int]) -> bool:
        k = len(out)
        free[k] = free[k - 1] and searcher.prefix_free(out)
        return free[k] or _prefix_may_pass(out, prefix_cliques)

    for out in acyclic_outsets(g, record, pinned):
        yield out, free[-1]


def _compare(g: Graph, partition: CoBipartitePartition, cliques: tuple,
             stream: Iterator[tuple[tuple[int, ...], bool]]) -> tuple[int, list]:
    """The stream's shortcut-free count and its disagreements, in stream
    order, each as ``(out, record)``."""
    semi = 0
    found = []
    for out, path_verdict in stream:
        semi += path_verdict
        if path_verdict != (_failed_stage(out, cliques) is None):
            o = Orientation(g, out)
            structural_verdict, report = is_semi_transitive_cobip(o, partition)
            found.append((out, {
                "arcs": [f"{u} -> {v}" for u, v in o.arcs()],
                "pathOracle": path_verdict,
                "structuralOracle": structural_verdict,
                "report": report.to_json(),
            }))
    return semi, found


def _drawn(adj: tuple[int, ...], count: int, seed: int) -> dict[tuple[int, ...], int]:
    """The distinct orientations of ``count`` seeded vertex orders, each
    mapped to its position among them in draw order.

    The orders are those of ``count`` calls of
    ``Random(seed).sample(range(n), n)``, and each is oriented from its
    earlier to its later vertices, as ``outs_from_order`` does; the tests
    keep that literal loop as the oracle.  This runs the same sample on the
    generator's bits.  Asked for all n items, ``sample`` takes its pool
    branch on every CPython from 3.10 to 3.13, since n never exceeds its
    set-size bound (21, plus 4^ceil(log4 3n) when n > 5): for m = n..1 it
    draws r below m by its randbelow step, ``getrandbits(m.bit_length())``
    again while r >= m, takes ``pool[r]`` and moves ``pool[m - 1]`` into
    its place.  So this makes the same ``getrandbits`` calls and takes the
    same vertices in the same order.  Each taken vertex v points at its
    neighbours still in the pool (``rest``, as a bitset), which are the
    vertices after v in the order.  So the distinct orientations and their
    first positions are the literal loop's.
    """
    getrandbits = Random(seed).getrandbits
    n = len(adj)
    widths = [(m, m.bit_length()) for m in range(n, 0, -1)]
    drawn: dict[tuple[int, ...], int] = {}
    for _ in range(count):
        pool = list(range(n))
        out = [0] * n
        rest = (1 << n) - 1
        for m, width in widths:
            r = getrandbits(width)
            while r >= m:
                r = getrandbits(width)
            v = pool[r]
            pool[r] = pool[m - 1]
            out[v] = adj[v] & rest
            rest ^= 1 << v
        drawn.setdefault(tuple(out), len(drawn))
    return drawn


def _drawn_in_half(g: Graph, cliques: tuple, drawn: dict
                   ) -> Iterator[tuple[tuple[int, ...], bool]]:
    """The ``drawn`` orientations that one mirror half of the pruned walk
    yields, or whose reverse it yields, each with its path verdict; the
    reverse keeps the verdict (the argument is in ``sweep_orientations``).
    """
    for out, free in _pruned_walk(g, cliques, _one_mirror_half(g)):
        if out in drawn:
            yield out, free
        back = tuple(a & ~o for a, o in zip(g.adj, out))
        if back != out and back in drawn:  # an edgeless graph's one orientation is its own reverse
            yield back, free


def sweep_orientations(
    g: Graph,
    partition: CoBipartitePartition,
    sample_threshold: int = DEFAULT_SAMPLE_THRESHOLD,
    seed: int = 0,
) -> SweepResult:
    """Compare both oracles over the acyclic orientations of one graph.

    When the number of linear orders exceeds ``sample_threshold``, that
    many orders are drawn with the seeded generator instead (``_drawn``;
    the result records the seed and that sampling happened).  The seed
    must be non-negative: ``Random`` seeds from its absolute value, so
    seeds s and -s would draw the same orders.  A full sweep counts its
    orientations with ``count_acyclic_orientations``, since its walk skips
    those both oracles reject, so it raises CapExceededError above
    COUNT_MAX_VERTICES vertices before it walks.  Disagreeing orientations
    are returned in stream order (draw order when sampling) with both
    verdicts and the structural report, the only one the sweep builds.

    A sampled sweep reads its draws' verdicts off one mirror half of the
    pruned walk (``_drawn_in_half``) when the graph has at most as many
    acyclic orientations as draws, and otherwise runs
    ``ShortcutSearcher.find`` on each distinct draw.  The half yields each
    of its orientations and, among the draws, that orientation's reverse,
    which has the same path verdict (below); ``_compare`` computes the
    reverse's core verdict itself.  A draw yielded neither way fails both
    oracles the same way: it is in the walked half and the walk drops it,
    or its reverse is, and reversal keeps both verdicts.  So it adds no
    semi-transitive orientation and no disagreement.  The half yields the
    draws in enumerator order, so its disagreements are sorted back into
    draw order.  Past the count the walk could cost far more than the
    draws, since every branch of it completes (K10 has 10! orientations).

    A full sweep walks one mirror half (``_one_mirror_half``) and doubles
    its semi-transitive count, because both oracles keep their verdict when
    every arc is reversed.  A reversed shortcut is a shortcut
    (Halldorsson-Kitaev-Pyatkin 2016).  In the core, clique transitivity is
    symmetric, and each clique order turns around: a run stays a run, so
    types A and B swap, and a type C vertex stays type C, its in-prefix
    from the source becoming an out-suffix to the new sink; so an Invalid
    vertex stays Invalid.  Lemma 4.2 pattern 1 on (x, y, s, t) reverses to
    pattern 1 on (y, x, t, s), and pattern 2 to pattern 2 on (t, s, y, x)
    with the cliques swapped, a missing diagonal to a missing diagonal.  So
    the other half holds as many shortcut-free orientations and no
    disagreement.  A half with a disagreement is walked again as the whole,
    so the disagreements keep stream order; an edgeless graph has one
    orientation, its own reverse.
    """
    if sample_threshold < 1:
        raise ValueError(f"sample_threshold must be >= 1, got {sample_threshold}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    cliques = _cliques(g, partition)
    total_orders = factorial(len(g.vertices))
    sampled = total_orders > sample_threshold
    total = count_acyclic_orientations(g)
    if not sampled and total is None:
        raise CapExceededError(
            f"a full sweep counts the orientations of at most {COUNT_MAX_VERTICES} "
            f"vertices, not {len(g.vertices)}")
    if sampled:
        drawn = _drawn(g.adj, sample_threshold, seed)
        if total is not None and total <= sample_threshold:
            stream = _drawn_in_half(g, cliques, drawn)
        else:
            find = ShortcutSearcher(g).find
            stream = ((out, find(out) is None) for out in drawn)
        semi, found = _compare(g, partition, cliques, stream)
        found.sort(key=lambda item: drawn[item[0]])
    else:
        semi, found = _compare(g, partition, cliques,
                               _pruned_walk(g, cliques, _one_mirror_half(g)))
        if found:
            semi, found = _compare(g, partition, cliques, _pruned_walk(g, cliques))
        elif g.edge_count:  # an edgeless graph has one orientation, its own reverse
            semi *= 2
    return SweepResult(
        orientations=len(drawn) if sampled else total,
        semi_transitive=semi,
        disagreements=tuple(record for _, record in found),
        sampled=sampled,
        seed=seed if sampled else None,
        orders_examined=sample_threshold if sampled else total_orders,
    )
