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

``is_semi_transitive_cobip`` runs the stages in that order and reports the
first failure as ``clique-transitivity``, ``typing``, ``lemma41``,
``lemma42`` or ``lemma43``; on acyclic orientations its verdict matches the
generic shortcut test (``ShortcutSearcher``), which the test suite sweeps
exhaustively.

Every stage runs in index space on the out-neighbor and adjacency bitsets.
The core, ``_failed_stage``, takes those bitsets and the clique index lists
and masks of an already validated partition, and returns the first failing
stage (or None) with the clique orders and vertex types it computed.  The
lemma checks generate their violations as index tuples: the core stops at
the first one, while the ``CharacterizationReport`` of a failing stage and
the label-level helpers list them all and turn indices into labels.  The
public functions validate the partition on every call; the dual-oracle
sweep validates it once and calls the core directly.

An empirical note from those sweeps: of the 145,152 acyclic orientations
of the 512 graphs made of two 3-cliques, 22,536 pass, 97,056 first fail
typing and 25,560 first fail lemma 4.2.  Lemma 4.1 cannot fail first on
any input: its common neighbor receives from the later and sends to the
earlier vertex of the pair, which no type allows.  Lemma 4.3 never failed
first at the sizes swept.  All stages stay active: each is sound alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import islice, repeat
from math import factorial
from random import Random
from typing import Iterator, Optional

from .graphs import CoBipartitePartition, Graph, GraphError, _bits
from .orientations import (
    Orientation,
    ShortcutSearcher,
    outs_from_order,
    outsets_shortcut_free,
)


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


def _order(out: tuple[int, ...], clique: list[int], mask: int) -> Optional[list[int]]:
    """Source-to-sink indices of a clique, or None when it is oriented cyclically;
    a tournament is transitive exactly when its out-degrees are all distinct."""
    last = len(clique) - 1
    order = [0] * len(clique)
    seen = 0
    for i in clique:
        score = (out[i] & mask).bit_count()
        seen |= 1 << score
        order[last - score] = i
    return order if seen == (1 << len(clique)) - 1 else None


def _run(x: int) -> bool:
    """The set bits of x are consecutive (vacuously when there are none)."""
    return x & (x + (x & -x)) == 0


def _vertex_types(out: tuple[int, ...], clique: list[int], order: list[int]) -> Iterator[tuple]:
    """(tag, outpos, inpos) of each clique vertex against the opposite ``order``.

    The tag is "A", "B", "C" or "Invalid"; outpos and inpos mask the
    positions in ``order`` that the vertex sends to and receives from.
    """
    slots = [(w, 1 << p) for p, w in enumerate(order)]
    sink = 1 << len(order) >> 1  # the last position's bit; 0 for an empty order
    for v in clique:
        outv, bit = out[v], 1 << v
        outpos = inpos = 0
        for w, at in slots:
            if outv >> w & 1:
                outpos |= at
            if out[w] & bit:
                inpos |= at
        if not inpos:
            tag = "A" if _run(outpos) else "Invalid"
        elif not outpos:
            tag = "B" if _run(inpos) else "Invalid"
        elif inpos & 1 and outpos & sink and _run(inpos) and _run(outpos):
            tag = "C"
        else:
            tag = "Invalid"
        yield tag, outpos, inpos


def _cliques(g: Graph, partition: CoBipartitePartition) -> tuple:
    """Validate the partition against ``g``; its cliques as (indices, mask) pairs.

    Raises GraphError on a bad partition.
    """
    return tuple((idx, sum(1 << i for i in idx)) for idx in partition.validate(g))


def _sides(out: tuple[int, ...], cliques: tuple) -> Optional[tuple]:
    """(clique, other clique, other's mask, other's order) for both cliques,
    or None when either clique is oriented cyclically."""
    (a, mask_a), (b, mask_b) = cliques
    order_a, order_b = _order(out, a, mask_a), _order(out, b, mask_b)
    if order_a is None or order_b is None:
        return None
    return (a, b, mask_b, order_b), (b, a, mask_a, order_a)


def _types(out: tuple[int, ...], sides: tuple) -> dict[int, tuple]:
    """(tag, outpos, inpos) of every vertex, by index."""
    types = {}
    for clique, _, _, order in sides:
        types.update(zip(clique, _vertex_types(out, clique, order)))
    return types


# The lemma checks yield their violations as index tuples, in a fixed
# order; each has a companion that turns one into the labelled report entry.


def _lemma41(out: tuple[int, ...], adj: tuple[int, ...], sides: tuple,
             types: dict) -> Iterator[tuple]:
    for clique, _, other_mask, _ in sides:
        for x in clique:
            if types[x][0] != "A":
                continue
            for y in clique:
                if types[y][0] == "B" and out[y] >> x & 1:
                    common = adj[x] & adj[y] & other_mask
                    if common:
                        yield x, y, common


def _describe41(labels: tuple[str, ...], x: int, y: int, common: int) -> dict:
    return {"condition": "ab-common-neighbor", "x": labels[x], "y": labels[y],
            "common": sorted(labels[i] for i in _bits(common))}


def _lemma42(out: tuple[int, ...], adj: tuple[int, ...], sides: tuple,
             types: dict) -> Iterator[tuple]:
    for clique, other, _, _ in sides:
        for x in clique:
            for y in clique:
                if y == x or not out[x] >> y & 1:
                    continue
                for s in other:
                    for t in other:
                        if t == s or not out[s] >> t & 1:
                            continue
                        if out[s] >> x & 1 and out[y] >> t & 1:
                            if not out[x] >> t & 1:
                                yield 1, x, y, s, t, x, t
                            if not out[s] >> y & 1:
                                yield 1, x, y, s, t, s, y
                        if out[y] >> s & 1 and out[x] >> t & 1:
                            if not out[x] >> s & 1:
                                yield 2, x, y, s, t, x, s
                            if not out[y] >> t & 1:
                                yield 2, x, y, s, t, y, t


def _describe42(labels: tuple[str, ...], pattern: int, x: int, y: int, s: int, t: int,
                tail: int, head: int) -> dict:
    return {"condition": f"quad-pattern-{pattern}",
            "x": labels[x], "y": labels[y], "s": labels[s], "t": labels[t],
            "requires": f"{labels[tail]}->{labels[head]}"}


def _lemma43(out: tuple[int, ...], adj: tuple[int, ...], sides: tuple,
             types: dict) -> Iterator[tuple]:
    for clique, _, _, order in sides:
        for x in clique:
            tag, outpos, inpos = types[x]
            if tag != "C":
                continue
            # boundary: last in-neighbor s and first out-neighbor t, by position
            ps, pt = inpos.bit_length() - 1, (outpos & -outpos).bit_length() - 1
            s, t = order[ps], order[pt]
            both = 1 << s | 1 << t
            for y in clique:
                if y == x:
                    continue
                ytag, youtpos, yinpos = types[y]
                if out[x] >> y & 1:
                    if ytag == "A" and adj[y] & both == both:
                        yield "typec-successor-a", x, y, s, t
                    if ytag == "C" and youtpos >> ps & 1:
                        yield "typec-successor-c", x, y, s, t
                elif out[y] >> x & 1:
                    if ytag == "B" and adj[y] & both == both:
                        yield "typec-predecessor-b", x, y, s, t
                    if ytag == "C" and yinpos >> pt & 1:
                        yield "typec-predecessor-c", x, y, s, t


def _describe43(labels: tuple[str, ...], condition: str, x: int, y: int, s: int,
                t: int) -> dict:
    return {"condition": condition, "x": labels[x], "y": labels[y],
            "boundary": [labels[s], labels[t]]}


_LEMMAS = {
    "lemma41": (_lemma41, _describe41),
    "lemma42": (_lemma42, _describe42),
    "lemma43": (_lemma43, _describe43),
}


def _failed_stage(out: tuple[int, ...], adj: tuple[int, ...],
                  cliques: tuple) -> tuple[Optional[str], Optional[tuple], Optional[dict]]:
    """The first failing stage of an orientation (None when it passes), with
    the sides (None when a clique is cyclic) and the vertex types (None
    unless typing passed) that it computed on the way.

    The index-level core of ``is_semi_transitive_cobip``: ``cliques`` comes
    from ``_cliques`` (a validated partition); typing stops at the first
    Invalid vertex and each lemma check at its first violation.
    """
    sides = _sides(out, cliques)
    if sides is None:
        return "clique-transitivity", None, None
    types = {}
    for clique, _, _, order in sides:
        for v, vtype in zip(clique, _vertex_types(out, clique, order)):
            if vtype[0] == "Invalid":
                return "typing", sides, None
            types[v] = vtype
    for stage, (lemma, _) in _LEMMAS.items():
        if next(lemma(out, adj, sides, types), None) is not None:
            return stage, sides, types
    return None, sides, types


# --- label-level API over the index core ---------------------------------------


def _cyclic_clique_error(out: tuple[int, ...], cliques: tuple,
                         partition: CoBipartitePartition) -> NonTransitiveCliqueError:
    """The error naming the first clique that ``out`` orients cyclically."""
    labels = next(labels for (clique, mask), labels
                  in zip(cliques, (partition.clique_a, partition.clique_b))
                  if _order(out, clique, mask) is None)
    return NonTransitiveCliqueError(f"clique {labels} is not oriented transitively")


def _violations(o: Orientation, partition: CoBipartitePartition, stage: str) -> list[dict]:
    """Every labelled violation of one lemma stage, in check order.

    Raises GraphError on a bad partition and NonTransitiveCliqueError when a
    clique is oriented cyclically.
    """
    g, out = o.graph, o.out
    cliques = _cliques(g, partition)
    sides = _sides(out, cliques)
    if sides is None:
        raise _cyclic_clique_error(out, cliques, partition)
    lemma, describe = _LEMMAS[stage]
    return [describe(g.vertices, *v) for v in lemma(out, g.adj, sides, _types(out, sides))]


def clique_order(o: Orientation, clique: tuple[str, ...]) -> CliqueOrder:
    """Unique source-to-sink order of a transitively oriented clique.

    Raises GraphError when the labels do not induce a complete subgraph and
    NonTransitiveCliqueError when the clique is oriented cyclically.
    """
    g = o.graph
    if not g.is_clique(clique):
        raise GraphError(f"{clique} does not induce a complete subgraph")
    idx = [g.index(v) for v in clique]
    order = _order(o.out, idx, sum(1 << i for i in idx))
    if order is None:
        raise NonTransitiveCliqueError(f"clique {clique} is not oriented transitively")
    return CliqueOrder(tuple(g.vertices[i] for i in order))


def classify_vertex(o: Orientation, partition: CoBipartitePartition, v: str,
                    opposite: Optional[CliqueOrder] = None) -> VertexTypeInfo:
    """Type a vertex as A, B or C against the opposite clique's full order.

    A vertex with no cross edges is reported as type A with an empty
    interval (it satisfies both A and B vacuously; A is the fixed
    tie-break).  Anything that fits no shape is Invalid, which is a value
    rather than an error.
    """
    g = o.graph
    side = partition.side_of(v)
    if opposite is None:
        opposite = clique_order(o, partition.clique_b if side == "A" else partition.clique_a)
    order = [g.index(w) for w in opposite.vertices]
    [(tag, outpos, inpos)] = _vertex_types(o.out, [g.index(v)], order)
    outs, ins = (tuple(opposite.vertices[p] for p in _bits(m)) for m in (outpos, inpos))
    if tag == "C":
        return VertexTypeInfo(v, "C", source_group=ins, sink_group=outs,
                              boundary=(ins[-1], outs[0]))
    if tag == "Invalid":
        return VertexTypeInfo(v, "Invalid")
    return VertexTypeInfo(v, tag, interval=outs if tag == "A" else ins)


def check_condition_ab(o: Orientation, partition: CoBipartitePartition) -> list[dict]:
    """Directed B-to-A pairs within a clique must not share a cross neighbor.

    If x is type A, y is type B, the edge runs y->x and both see a common
    vertex z opposite, then x->z and z->y close a directed triangle.
    """
    return _violations(o, partition, "lemma41")


def check_condition_quad(o: Orientation, partition: CoBipartitePartition) -> list[dict]:
    """Four-vertex patterns across the cliques force both diagonals.

    For x->y in one clique and s->t in the other:
    pattern 1: with s->x and y->t present, x->t and s->y must be present;
    pattern 2: with y->s and x->t present, x->s and y->t must be present.
    A missing or reversed diagonal would complete a shortcut or a cycle.
    """
    return _violations(o, partition, "lemma42")


def check_condition_typec(o: Orientation, partition: CoBipartitePartition) -> list[dict]:
    """Type C boundaries must not be straddled by same-clique companions.

    For a type C vertex x with boundary (s, t): a successor y (x->y) may
    be neither a type A vertex adjacent to both s and t, nor a type C
    vertex whose sink group contains s; a predecessor y (y->x) may be
    neither a type B vertex adjacent to both s and t, nor a type C vertex
    whose source group contains t.
    """
    return _violations(o, partition, "lemma43")


@dataclass(frozen=True)
class CharacterizationReport:
    semi_transitive: bool
    failed_stage: Optional[str]  # clique-transitivity, typing, lemma41, lemma42, lemma43
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

    True exactly when both cliques are transitive, every vertex types as
    A/B/C, and the three cross-pattern conditions are all clean.  The
    report names the first failing stage and lists all of its violations;
    later stages are skipped because their conditions presume a fully
    typed orientation.  Raises GraphError on a bad partition.
    """
    g, out = o.graph, o.out
    cliques = _cliques(g, partition)
    stage, sides, types = _failed_stage(out, g.adj, cliques)
    if stage is None:
        return True, CharacterizationReport(True, None)
    if stage == "clique-transitivity":
        details = (str(_cyclic_clique_error(out, cliques, partition)),)
    elif stage == "typing":
        types = _types(out, sides)
        invalid = sorted(g.vertices[v] for v, (tag, _, _) in types.items() if tag == "Invalid")
        details = tuple({"vertex": v} for v in invalid)
    else:
        lemma, describe = _LEMMAS[stage]
        details = tuple(describe(g.vertices, *v) for v in lemma(out, g.adj, sides, types))
    return False, CharacterizationReport(False, stage, details)


# --- dual-oracle sweep ------------------------------------------------------
#
# Runs both semi-transitivity deciders (the generic reachability-based
# shortcut test and the staged structural test above) over one stream of
# acyclic orientations of a co-bipartite graph and reports any
# disagreement.  The stream is the exhaustive enumerator, or the distinct
# orientations of seeded random orders when sampling.
#
# Path verdicts: a full sweep reads them off one walk of the enumerator,
# outsets_shortcut_free, whose never-pruning prefix check runs the
# incremental shortcut test (ShortcutSearcher.prefix_free) only under a
# shortcut-free parent; that relies on the enumerator's DFS preorder, and
# no orientation is searched on its own.  A sampled stream calls
# ShortcutSearcher.find on each orientation.
#
# Structural verdicts: each shard validates the partition once and asks the
# index-level core about every orientation's raw out-neighbor tuple; only a
# disagreement builds an Orientation and the full labelled report through
# is_semi_transitive_cobip.  With N shards, shard w walks the same stream
# and evaluates items w, w + N, ...; the shards share at most one process
# per core and receive the graph as it is.  Counts add up and disagreements
# are merged by stream position, so the result equals a one-shard run.


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


def _orientation_stream(g: Graph, sample: Optional[int], seed: int, start: int,
                        step: int) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Every step-th item from start of the sweep's stream, with its path verdict.

    The stream is every acyclic orientation, or the distinct ones induced by
    ``sample`` seeded orders; each comes as ``(out, shortcut_free)``.
    """
    if sample is None:
        return islice(outsets_shortcut_free(g), start, None, step)
    rng = Random(seed)
    base = list(range(len(g.vertices)))
    sampled = dict.fromkeys(
        outs_from_order(g.adj, rng.sample(base, len(base))) for _ in range(sample))
    find = ShortcutSearcher(g).find
    return ((out, find(out) is None) for out in islice(sampled, start, None, step))


def _sweep_slice(g: Graph, partition: CoBipartitePartition, sample: Optional[int],
                 seed: int, start: int, step: int) -> tuple[int, int, list]:
    """Counts and positioned disagreements over every step-th orientation from start."""
    adj, cliques = g.adj, _cliques(g, partition)
    count = semi = 0
    disagreements = []
    for position, (out, path_verdict) in enumerate(
            _orientation_stream(g, sample, seed, start, step)):
        count += 1
        semi += path_verdict
        if path_verdict != (_failed_stage(out, adj, cliques)[0] is None):
            o = Orientation(g, out)
            structural_verdict, report = is_semi_transitive_cobip(o, partition)
            disagreements.append((start + position * step, {
                "arcs": [f"{u} -> {v}" for u, v in o.arcs()],
                "pathOracle": path_verdict,
                "structuralOracle": structural_verdict,
                "report": report.to_json(),
            }))
    return count, semi, disagreements


def sweep_orientations(
    g: Graph,
    partition: CoBipartitePartition,
    workers: int = 1,
    sample_threshold: int = 200_000,
    seed: int = 0,
) -> SweepResult:
    """Compare both oracles over the acyclic orientations of one graph.

    When the number of linear orders exceeds ``sample_threshold``, that
    many orders are drawn with the seeded generator instead (the result
    records the seed and that sampling happened).  Disagreeing
    orientations are returned in stream order with both verdicts and the
    structural report.  ``workers`` shards the stream; the shards run in
    at most one process per core.
    """
    if sample_threshold < 1:
        raise ValueError(f"sample_threshold must be >= 1, got {sample_threshold}")
    partition.validate(g)
    total_orders = factorial(len(g.vertices))
    sampled = total_orders > sample_threshold
    sample = sample_threshold if sampled else None

    if workers <= 1:
        shards = [_sweep_slice(g, partition, sample, seed, 0, 1)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            shards = list(pool.map(_sweep_slice, repeat(g), repeat(partition), repeat(sample),
                                   repeat(seed), range(workers), repeat(workers)))

    positioned = sorted(item for _, _, found in shards for item in found)
    return SweepResult(
        orientations=sum(count for count, _, _ in shards),
        semi_transitive=sum(semi for _, semi, _ in shards),
        disagreements=tuple(record for _, record in positioned),
        sampled=sampled,
        seed=seed if sampled else None,
        orders_examined=sample_threshold if sampled else total_orders,
    )
