"""Structural test for semi-transitivity of co-bipartite orientations.

An orientation of a two-clique graph is semi-transitive exactly when

* each clique is oriented transitively (so it has a unique source-to-sink
  order),
* every vertex relates to the opposite clique's order in one of three
  shapes: all cross edges outgoing into a consecutive run (type A), all
  incoming from a consecutive run (type B), or incoming from a prefix that
  includes the opposite source and outgoing into a suffix that includes the
  opposite sink (type C), and
* three cross-pattern conditions hold, checked here as ``check_condition_ab``
  (no directed A/B pair sharing a cross neighbor), ``check_condition_quad``
  (two four-vertex patterns forcing their diagonals), and
  ``check_condition_typec`` (type C boundaries cannot be straddled).

``is_semi_transitive_cobip`` runs the stages in that order and reports the
first failure as ``clique-transitivity``, ``typing``, ``lemma41`` (A/B),
``lemma42`` (quad) or ``lemma43`` (type C); on acyclic orientations its
verdict matches the generic path-based shortcut search, which the test
suite sweeps exhaustively.

One empirical note from those sweeps: on acyclic input the first failing
stage is only ever clique transitivity, typing, or the quad condition.
The A/B condition's premise contains a directed triangle, so it can fire
only on cyclic input; the type C condition never fired first at the sizes
swept.  All stages stay active since each is sound on its own.
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

    def position(self, v: str) -> int:
        return self.vertices.index(v)


def clique_order(o: Orientation, clique: tuple[str, ...]) -> CliqueOrder:
    """Unique source-to-sink order of a transitively oriented clique.

    A tournament is transitive exactly when its out-degrees are all
    distinct, so the order is obtained by sorting on within-clique
    out-degree.  Raises NonTransitiveCliqueError otherwise.
    """
    g = o.graph
    if not g.is_clique(clique):
        raise GraphError(f"{clique} does not induce a complete subgraph")
    idx = [g.index(v) for v in clique]
    mask = 0
    for i in idx:
        mask |= 1 << i
    score = {v: (o.out[g.index(v)] & mask).bit_count() for v in clique}
    m = len(clique)
    if sorted(score.values()) != list(range(m)):
        raise NonTransitiveCliqueError(
            f"clique {clique} is not oriented transitively"
        )
    return CliqueOrder(tuple(sorted(clique, key=lambda v: -score[v])))


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


def _consecutive(positions: list[int]) -> bool:
    return not positions or positions[-1] - positions[0] + 1 == len(positions)


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
        other = partition.clique_b if side == "A" else partition.clique_a
        opposite = clique_order(o, other)
    order = opposite.vertices
    l = len(order)
    outpos = [p for p, w in enumerate(order) if o.has_arc(v, w)]
    inpos = [p for p, w in enumerate(order) if o.has_arc(w, v)]

    if not inpos:
        if _consecutive(outpos):
            lo, hi = (outpos[0], outpos[-1]) if outpos else (0, -1)
            return VertexTypeInfo(v, "A", interval=order[lo:hi + 1])
        return VertexTypeInfo(v, "Invalid")
    if not outpos:
        if _consecutive(inpos):
            return VertexTypeInfo(v, "B", interval=order[inpos[0]:inpos[-1] + 1])
        return VertexTypeInfo(v, "Invalid")
    # Both directions present: type C needs an in-prefix from the opposite
    # source and an out-suffix reaching the opposite sink.
    prefix_ok = inpos[0] == 0 and _consecutive(inpos)
    suffix_ok = outpos[-1] == l - 1 and _consecutive(outpos)
    if prefix_ok and suffix_ok:
        source_group = order[: len(inpos)]
        sink_group = order[outpos[0]:]
        return VertexTypeInfo(
            v, "C",
            source_group=source_group,
            sink_group=sink_group,
            boundary=(source_group[-1], sink_group[0]),
        )
    return VertexTypeInfo(v, "Invalid")


@dataclass
class CobipAnalysis:
    """Clique orders plus the type of every vertex, computed once per orientation."""

    order_a: CliqueOrder
    order_b: CliqueOrder
    types: dict[str, VertexTypeInfo]


def analyze(o: Orientation, partition: CoBipartitePartition) -> CobipAnalysis:
    partition.validate(o.graph)
    order_a = clique_order(o, partition.clique_a)
    order_b = clique_order(o, partition.clique_b)
    types = {}
    for v in partition.clique_a:
        types[v] = classify_vertex(o, partition, v, opposite=order_b)
    for v in partition.clique_b:
        types[v] = classify_vertex(o, partition, v, opposite=order_a)
    return CobipAnalysis(order_a, order_b, types)


def _cross_neighbors(g: Graph, v: str, opposite: tuple[str, ...]) -> set[str]:
    return {w for w in opposite if g.has_edge(v, w)}


def check_condition_ab(o: Orientation, partition: CoBipartitePartition,
                       analysis: Optional[CobipAnalysis] = None) -> list[dict]:
    """Directed B-to-A pairs within a clique must not share a cross neighbor.

    If x is type A, y is type B, the edge runs y->x and both see a common
    vertex z opposite, then x->z and z->y close a directed triangle.
    """
    analysis = analysis or analyze(o, partition)
    g = o.graph
    violations = []
    for clique, opposite in ((partition.clique_a, partition.clique_b),
                             (partition.clique_b, partition.clique_a)):
        for x in clique:
            if analysis.types[x].tag != "A":
                continue
            for y in clique:
                if y == x or analysis.types[y].tag != "B" or not o.has_arc(y, x):
                    continue
                common = _cross_neighbors(g, x, opposite) & _cross_neighbors(g, y, opposite)
                if common:
                    violations.append({
                        "condition": "ab-common-neighbor",
                        "x": x, "y": y, "common": sorted(common),
                    })
    return violations


def check_condition_quad(o: Orientation, partition: CoBipartitePartition,
                         analysis: Optional[CobipAnalysis] = None) -> list[dict]:
    """Four-vertex patterns across the cliques force both diagonals.

    For x->y in one clique and s->t in the other:
    pattern 1: with s->x and y->t present, x->t and s->y must be present;
    pattern 2: with y->s and x->t present, x->s and y->t must be present.
    A missing or reversed diagonal would complete a shortcut or a cycle.
    """
    analysis = analysis or analyze(o, partition)
    violations = []

    def demand(pattern: int, x: str, y: str, s: str, t: str,
               tail: str, head: str) -> None:
        if not o.has_arc(tail, head):
            violations.append({
                "condition": f"quad-pattern-{pattern}",
                "x": x, "y": y, "s": s, "t": t,
                "requires": f"{tail}->{head}",
            })

    for clique, other in ((partition.clique_a, partition.clique_b),
                          (partition.clique_b, partition.clique_a)):
        for x in clique:
            for y in clique:
                if y == x or not o.has_arc(x, y):
                    continue
                for s in other:
                    for t in other:
                        if t == s or not o.has_arc(s, t):
                            continue
                        if o.has_arc(s, x) and o.has_arc(y, t):
                            demand(1, x, y, s, t, x, t)
                            demand(1, x, y, s, t, s, y)
                        if o.has_arc(y, s) and o.has_arc(x, t):
                            demand(2, x, y, s, t, x, s)
                            demand(2, x, y, s, t, y, t)
    return violations


def check_condition_typec(o: Orientation, partition: CoBipartitePartition,
                          analysis: Optional[CobipAnalysis] = None) -> list[dict]:
    """Type C boundaries must not be straddled by same-clique companions.

    For a type C vertex x with boundary (s, t): a successor y (x->y) may
    be neither a type A vertex adjacent to both s and t, nor a type C
    vertex whose sink group contains s; a predecessor y (y->x) may be
    neither a type B vertex adjacent to both s and t, nor a type C vertex
    whose source group contains t.
    """
    analysis = analysis or analyze(o, partition)
    g = o.graph
    violations = []
    for clique in (partition.clique_a, partition.clique_b):
        for x in clique:
            info = analysis.types[x]
            if info.tag != "C":
                continue
            s, t = info.boundary
            for y in clique:
                if y == x:
                    continue
                ytype = analysis.types[y]
                if o.has_arc(x, y):
                    if ytype.tag == "A" and g.has_edge(y, s) and g.has_edge(y, t):
                        violations.append({
                            "condition": "typec-successor-a",
                            "x": x, "y": y, "boundary": [s, t],
                        })
                    if ytype.tag == "C" and s in ytype.sink_group:
                        violations.append({
                            "condition": "typec-successor-c",
                            "x": x, "y": y, "boundary": [s, t],
                        })
                elif o.has_arc(y, x):
                    if ytype.tag == "B" and g.has_edge(y, s) and g.has_edge(y, t):
                        violations.append({
                            "condition": "typec-predecessor-b",
                            "x": x, "y": y, "boundary": [s, t],
                        })
                    if ytype.tag == "C" and t in ytype.source_group:
                        violations.append({
                            "condition": "typec-predecessor-c",
                            "x": x, "y": y, "boundary": [s, t],
                        })
    return violations


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


_STAGE_CHECKS = (
    ("lemma41", check_condition_ab),
    ("lemma42", check_condition_quad),
    ("lemma43", check_condition_typec),
)


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
        analysis = analyze(o, partition)
    except NonTransitiveCliqueError as exc:
        return False, CharacterizationReport(False, "clique-transitivity", (str(exc),))
    invalid = sorted(v for v, info in analysis.types.items() if info.tag == "Invalid")
    if invalid:
        return False, CharacterizationReport(
            False, "typing", tuple({"vertex": v} for v in invalid)
        )
    for stage, check in _STAGE_CHECKS:
        violations = check(o, partition, analysis)
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
