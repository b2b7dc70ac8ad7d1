"""A/B/C typing, the cross-pattern conditions, and the staged verdict."""

import math
from collections import Counter
from itertools import combinations, permutations

import pytest

from wordrep.graphs import CoBipartitePartition, Graph, GraphError, named_witness
from wordrep.constructions import complement_path_graph
from wordrep.orientations import (
    Orientation,
    ShortcutSearcher,
    acyclic_outsets,
    count_acyclic_orientations,
    find_semi_transitive_orientation,
    is_acyclic,
    outs_from_order,
)
from wordrep.cobipartite import (
    NonTransitiveCliqueError,
    VertexTypeInfo,
    check_condition_ab,
    check_condition_quad,
    check_condition_typec,
    classify_vertex,
    clique_order,
    is_semi_transitive_cobip,
    sweep_orientations,
)


def join_graph(part_a, part_b, cross=None):
    """Two cliques plus the given cross edges (all of them when cross is None)."""
    edges = list(combinations(part_a, 2)) + list(combinations(part_b, 2))
    if cross is None:
        cross = [(a, b) for a in part_a for b in part_b]
    edges += cross
    g = Graph.from_edges(tuple(part_a) + tuple(part_b), edges)
    return g, CoBipartitePartition(tuple(part_a), tuple(part_b))


def cross_pattern(part_a, part_b, bits):
    """Two cliques plus the cross edges that ``bits`` selects, row by row."""
    pairs = [(a, b) for a in part_a for b in part_b]
    return join_graph(part_a, part_b, cross=[e for t, e in enumerate(pairs) if bits >> t & 1])


class TestCliqueOrder:
    def test_k3_order(self):
        g, _ = join_graph(["a", "b", "c"], [])
        o = Orientation.from_arcs(g, [("a", "b"), ("b", "c"), ("a", "c")])
        assert clique_order(o, ("a", "b", "c")).vertices == ("a", "b", "c")

    def test_cyclic_k3_rejected(self):
        g, _ = join_graph(["a", "b", "c"], [])
        o = Orientation.from_arcs(g, [("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(NonTransitiveCliqueError):
            clique_order(o, ("a", "b", "c"))

    def test_order_induced_k4(self):
        g, _ = join_graph(list("wxyz"), [])
        o = Orientation.from_order(g, list("wxyz"))
        assert clique_order(o, tuple("wxyz")).vertices == tuple("wxyz")


class TestClassifyVertex:
    def test_no_cross_edges_is_type_a_with_empty_interval(self):
        g, part = join_graph(["v"], ["p", "q"], cross=[])
        o = Orientation.from_order(g, ["v", "p", "q"])
        info = classify_vertex(o, part, "v")
        assert info.tag == "A" and info.interval == ()

    def test_type_c_boundary(self):
        # seven vertices: x against a 5-chain with in-edges from the top two
        # and out-edges to the bottom two
        chain = ["p1", "p2", "p3", "p4", "p5"]
        g, part = join_graph(
            ["x", "y"], chain,
            cross=[("x", "p1"), ("x", "p2"), ("x", "p4"), ("x", "p5")],
        )
        arcs = [(u, v) for u, v in combinations(chain, 2)]
        arcs += [("x", "y"), ("p1", "x"), ("p2", "x"), ("x", "p4"), ("x", "p5")]
        o = Orientation.from_arcs(g, arcs)
        info = classify_vertex(o, part, "x")
        assert info.tag == "C"
        assert info.source_group == ("p1", "p2")
        assert info.sink_group == ("p4", "p5")
        assert info.boundary == ("p2", "p4")

    def test_non_consecutive_out_edges_invalid(self):
        order = ["p1", "p2", "p3", "p4"]
        g, part = join_graph(["v"], order, cross=[("v", "p1"), ("v", "p3")])
        arcs = [(u, w) for u, w in combinations(order, 2)]
        arcs += [("v", "p1"), ("v", "p3")]
        o = Orientation.from_arcs(g, arcs)
        assert classify_vertex(o, part, "v").tag == "Invalid"

    def test_type_b_interval(self):
        order = ["p1", "p2", "p3"]
        g, part = join_graph(["v"], order, cross=[("v", "p2"), ("v", "p3")])
        arcs = [(u, w) for u, w in combinations(order, 2)]
        arcs += [("p2", "v"), ("p3", "v")]
        o = Orientation.from_arcs(g, arcs)
        info = classify_vertex(o, part, "v")
        assert info.tag == "B" and info.interval == ("p2", "p3")

    def test_a_partition_missing_a_vertex_raises(self):
        g, _ = join_graph(["a", "c"], ["b", "d"])
        o = Orientation.from_order(g, list("abcd"))
        part = CoBipartitePartition(("a",), ("b",))
        for check in (check_condition_ab, lambda o, part: classify_vertex(o, part, "a")):
            with pytest.raises(GraphError):
                check(o, part)

    def test_a_side_that_is_no_clique_raises_for_every_vertex(self):
        g = Graph.from_edges("abcd", ["ab", "bc", "cd", "ac"])
        o = Orientation.from_order(g, list("abcd"))
        part = CoBipartitePartition(("a", "c"), ("b", "d"))
        with pytest.raises(GraphError):
            check_condition_ab(o, part)
        for v in "abcd":
            with pytest.raises(GraphError):
                classify_vertex(o, part, v)

    def test_a_cyclic_own_clique_raises(self):
        g, part = join_graph(["a", "b", "c"], ["p"])
        o = Orientation.from_arcs(g, [("a", "b"), ("b", "c"), ("c", "a"),
                                      ("p", "a"), ("p", "b"), ("p", "c")])
        for check in (check_condition_ab, lambda o, part: classify_vertex(o, part, "a")):
            with pytest.raises(NonTransitiveCliqueError):
                check(o, part)


class TestConditionAB:
    def test_shared_neighbor_is_reported(self):
        g, part = join_graph(["x", "y"], ["s"], cross=[("x", "s"), ("y", "s")])
        o = Orientation.from_arcs(g, [("y", "x"), ("x", "s"), ("s", "y")])
        violations = check_condition_ab(o, part)
        assert len(violations) == 1
        assert violations[0]["x"] == "x" and violations[0]["y"] == "y"

    def test_disjoint_neighborhoods_are_fine(self):
        g, part = join_graph(["x", "y"], ["s", "t"], cross=[("x", "s"), ("y", "t")])
        o = Orientation.from_arcs(
            g, [("y", "x"), ("s", "t"), ("x", "s"), ("t", "y")]
        )
        assert check_condition_ab(o, part) == []

    def test_clean_on_found_semi_transitive_orientations(self):
        from wordrep.constructions import complement_cycle_graph

        g, part = complement_cycle_graph(3)
        o = find_semi_transitive_orientation(g)
        assert o is not None
        assert check_condition_ab(o, part) == []


class TestConditionQuad:
    def test_pattern_one_missing_diagonals(self):
        # path s -> x -> y -> t with s -> t, both diagonals absent
        g, part = join_graph(["x", "y"], ["s", "t"], cross=[("s", "x"), ("y", "t")])
        o = Orientation.from_arcs(g, [("x", "y"), ("s", "t"), ("s", "x"), ("y", "t")])
        violations = check_condition_quad(o, part)
        assert {v["requires"] for v in violations} == {"x->t", "s->y"}

    def test_pattern_two_missing_diagonals(self):
        # path x -> y -> s -> t with x -> t
        g, part = join_graph(["x", "y"], ["s", "t"], cross=[("y", "s"), ("x", "t")])
        o = Orientation.from_arcs(g, [("x", "y"), ("s", "t"), ("y", "s"), ("x", "t")])
        violations = check_condition_quad(o, part)
        assert {v["requires"] for v in violations} == {"x->s", "y->t"}

    def test_transitive_complete_join_is_clean(self):
        g, part = join_graph(["a1", "a2"], ["b1", "b2"])
        o = Orientation.from_order(g, ["a1", "a2", "b1", "b2"])
        assert check_condition_quad(o, part) == []


class TestConditionTypeC:
    def test_successor_type_a_straddling_boundary(self):
        chain = ["q1", "q2", "q3", "q4"]
        cross = [("x", q) for q in chain] + [("y", "q2"), ("y", "q3")]
        g, part = join_graph(["x", "y"], chain, cross=cross)
        arcs = [(u, w) for u, w in combinations(chain, 2)]
        arcs += [("q1", "x"), ("q2", "x"), ("x", "q3"), ("x", "q4")]
        arcs += [("x", "y"), ("y", "q2"), ("y", "q3")]
        o = Orientation.from_arcs(g, arcs)
        violations = check_condition_typec(o, part)
        assert any(v["condition"] == "typec-successor-a" for v in violations)

    def test_vacuous_without_type_c(self):
        g, part = join_graph(["a1", "a2"], ["b1", "b2"])
        o = Orientation.from_order(g, ["a1", "a2", "b1", "b2"])
        assert check_condition_typec(o, part) == []

    def test_clean_on_co_p8_semi_transitive_orientations(self):
        g, part = complement_path_graph(4)
        searcher = ShortcutSearcher(g)
        checked = 0
        for out in acyclic_outsets(g):
            if searcher.find(out) is None:
                o = Orientation(g, out)
                assert check_condition_typec(o, part) == []
                checked += 1
                if checked >= 10:
                    break
        assert checked > 0


class TestStagedVerdict:
    def test_transitive_complete_join_passes(self):
        g, part = join_graph(["a1", "a2"], ["b1", "b2"])
        o = Orientation.from_order(g, ["a1", "a2", "b1", "b2"])
        ok, report = is_semi_transitive_cobip(o, part)
        assert ok and report.failed_stage is None
        assert report.to_json()["semiTransitive"] is True

    def test_every_orientation_of_t1bar_fails(self):
        g, part = named_witness("T1bar")
        stages = set()
        for o in [Orientation(g, out) for out in acyclic_outsets(g)]:
            ok, report = is_semi_transitive_cobip(o, part)
            assert not ok
            stages.add(report.failed_stage)
        assert stages  # at least one failing stage seen

    def test_cyclic_clique_reported_as_first_stage(self):
        g, part = join_graph(["a", "b", "c"], ["d"], cross=[])
        o = Orientation.from_arcs(
            g, [("a", "b"), ("b", "c"), ("c", "a")]
        )
        ok, report = is_semi_transitive_cobip(o, part)
        assert not ok and report.failed_stage == "clique-transitivity"

    def test_report_stage_tokens(self):
        # the wire format commits to these stage names
        g, part = join_graph(["x", "y"], ["s", "t"], cross=[("s", "x"), ("y", "t")])
        o = Orientation.from_arcs(g, [("x", "y"), ("s", "t"), ("s", "x"), ("y", "t")])
        ok, report = is_semi_transitive_cobip(o, part)
        assert not ok and report.failed_stage == "lemma42"
        g, part = join_graph(["a0", "a1"], ["b0", "b1"], cross=[("a0", "b1"), ("a1", "b0")])
        o = Orientation.from_arcs(g, [("a1", "a0"), ("a0", "b1"), ("b1", "b0"), ("b0", "a1")])
        ok, report = is_semi_transitive_cobip(o, part)
        assert not ok and report.failed_stage == "acyclicity"

    def test_every_cyclic_orientation_fails(self):
        # The index core presumes acyclic input and passes 64 of the 8,132
        # cyclic orientations of the 2+2 and 2+3 graphs, the directed
        # 4-cycle above among them; the labelled verdict rejects every one,
        # at clique transitivity or at the acyclicity stage after it.
        import wordrep.cobipartite as cob

        cases = [cross_pattern(["a1", "a2"], ["b1", "b2"], bits) for bits in range(16)]
        cases += [cross_pattern(["a1", "a2"], ["b1", "b2", "b3"], bits) for bits in range(64)]
        cyclic = core_passed = 0
        for g, part in cases:
            cliques = cob._cliques(g, part)
            edges = g.edges()
            for bits in range(1 << len(edges)):
                o = Orientation.from_arcs(g, [(u, v) if bits >> t & 1 else (v, u)
                                              for t, (u, v) in enumerate(edges)])
                if is_acyclic(o):
                    continue
                cyclic += 1
                core_passed += cob._failed_stage(o.out, cliques) is None
                ok, report = is_semi_transitive_cobip(o, part)
                expected = ("acyclicity" if cob._ranks(o.out, cliques[0]) is not None else
                            "clique-transitivity")
                assert not ok and report.failed_stage == expected, (g.adj, o)
        assert (cyclic, core_passed) == (8_132, 64)

    def test_lemmas_41_and_43_never_fire_on_acyclic_orientations(self):
        # Each of their violations closes a directed triangle, which is why
        # the core leaves them out (the proof is in _failed_stage).
        import random

        rng = random.Random(4143)
        cases = [cross_pattern(["a1", "a2"], ["b1", "b2"], bits) for bits in range(16)]
        cases += [cross_pattern(["a1", "a2"], ["b1", "b2", "b3"], bits) for bits in range(64)]
        for _ in range(30):
            g, part = cross_pattern(["a1", "a2", "a3"], ["b1", "b2", "b3"], rng.getrandbits(9))
            cases.append((Graph.from_edges(rng.sample(g.vertices, 6), g.edges()), part))
        checked = 0
        for g, part in cases:
            for out in acyclic_outsets(g):
                o = Orientation(g, out)
                assert check_condition_ab(o, part) == check_condition_typec(o, part) == [], o
                checked += 1
        assert checked > 10_000

    def test_passing_type_c_groups_touch_source_and_sink(self):
        g, part = complement_path_graph(3)
        found = 0
        for out in acyclic_outsets(g):
            o = Orientation(g, out)
            ok, _ = is_semi_transitive_cobip(o, part)
            if not ok:
                continue
            for side, opposite in ((part.clique_a, part.clique_b),
                                   (part.clique_b, part.clique_a)):
                order = clique_order(o, opposite)
                for v in side:
                    info = classify_vertex(o, part, v)
                    if info.tag == "C":
                        assert info.source_group[0] == order.vertices[0]
                        assert info.sink_group[-1] == order.vertices[-1]
                        found += 1
        assert found > 0


def helper_stage(o, part):
    """The first failing stage, derived from the label-level helpers alone."""
    try:
        for clique in (part.clique_a, part.clique_b):
            clique_order(o, clique)
    except NonTransitiveCliqueError:
        return "clique-transitivity"
    if any(classify_vertex(o, part, v).tag == "Invalid" for v in part.clique_a + part.clique_b):
        return "typing"
    for stage, check in (("lemma41", check_condition_ab), ("lemma42", check_condition_quad),
                         ("lemma43", check_condition_typec)):
        if check(o, part):
            return stage
    return None


def literal_order(o, clique):
    """Source-to-sink indices of a clique read off the definition, or None
    when some triangle is a directed cycle (a tournament is transitive
    exactly when it has no directed 3-cycle)."""
    g, out = o.graph, o.out
    idx = [g.index(v) for v in clique]
    for a, b, c in combinations(idx, 3):
        if (out[a] >> b & out[b] >> c & out[c] >> a & 1
                or out[a] >> c & out[c] >> b & out[b] >> a & 1):
            return None
    return sorted(idx, key=lambda i: -sum(out[i] >> j & 1 for j in idx))


def literal_types(o, part):
    """(tag, outrank, inrank) of every vertex by index, by the slot walk, or
    None when a clique is cyclic.

    Each vertex walks every slot of the opposite clique's order, reading
    the out-arc from its own out-bitset and the in-arc from the slot
    vertex's out-bitset; the masks hold rank bits, which count positions
    from the sink.
    """
    def run(ps):
        return not ps or ps[-1] - ps[0] == len(ps) - 1

    g, out = o.graph, o.out
    orders = [literal_order(o, clique) for clique in (part.clique_b, part.clique_a)]
    if None in orders:
        return None
    types = {}
    for clique, order in zip((part.clique_a, part.clique_b), orders):
        last = len(order) - 1
        for v in clique:
            i = g.index(v)
            outs = [p for p, w in enumerate(order) if out[i] >> w & 1]
            ins = [p for p, w in enumerate(order) if out[w] >> i & 1]
            if not ins:
                tag = "A" if run(outs) else "Invalid"
            elif not outs:
                tag = "B" if run(ins) else "Invalid"
            elif ins[0] == 0 and outs[-1] == last and run(ins) and run(outs):
                tag = "C"
            else:
                tag = "Invalid"
            types[i] = (tag, sum(1 << last - p for p in outs), sum(1 << last - p for p in ins))
    return types


def literal_info(o, part, types, v):
    """``classify_vertex``'s answer for v, read off ``literal_types``: its
    tag, and its groups from the rank masks against the opposite order."""
    g = o.graph
    tag, outmask, inmask = types[g.index(v)]
    order = literal_order(o, part.clique_b if v in part.clique_a else part.clique_a)
    last = len(order) - 1
    outs, ins = (tuple(g.vertices[w] for p, w in enumerate(order) if mask >> last - p & 1)
                 for mask in (outmask, inmask))
    if tag == "C":
        return VertexTypeInfo(v, "C", source_group=ins, sink_group=outs,
                              boundary=(ins[-1], outs[0]))
    if tag == "Invalid":
        return VertexTypeInfo(v, "Invalid")
    return VertexTypeInfo(v, tag, interval=outs if tag == "A" else ins)


def literal_quad_fails(o, part):
    """Whether some x->y in one clique and s->t in the other miss a diagonal
    that lemma 4.2 forces, read off its two patterns."""
    g, out = o.graph, o.out

    def arc(u, v):
        return out[u] >> v & 1

    a, b = ([g.index(v) for v in clique] for clique in (part.clique_a, part.clique_b))
    for one, other in ((a, b), (b, a)):
        for x, y in permutations(one, 2):
            for s, t in permutations(other, 2):
                if not (arc(x, y) and arc(s, t)):
                    continue
                if arc(s, x) and arc(y, t) and not (arc(x, t) and arc(s, y)):
                    return True
                if arc(y, s) and arc(x, t) and not (arc(x, s) and arc(y, t)):
                    return True
    return False


def literal_stage(o, part):
    """The core's stage from the slot walk and lemma 4.2's patterns alone."""
    types = literal_types(o, part)
    if types is None:
        return "clique-transitivity"
    if any(tag == "Invalid" for tag, _, _ in types.values()):
        return "typing"
    return "lemma42" if literal_quad_fails(o, part) else None


def small_cross_patterns(seed):
    """Every 2+2, 2+3 and 3+3 cross pattern, each with its vertices listed
    in a seeded random order, so the cliques interleave in index order."""
    import random

    rng = random.Random(seed)
    for na, nb in ((2, 2), (2, 3), (3, 3)):
        a, b = [f"a{i}" for i in range(na)], [f"b{j}" for j in range(nb)]
        for bits in range(1 << na * nb):
            g, part = cross_pattern(a, b, bits)
            yield Graph.from_edges(rng.sample(g.vertices, na + nb), g.edges()), part


def clique_order_prefixes(cliques):
    """``_cliques``'s result restricted to vertices 0..k, for every k, each
    clique kept in partition order."""
    sides, cross, _ = cliques
    entries = []
    for k in range(len(cross)):
        keep = (1 << k + 1) - 1
        kept = tuple((tuple(v for v in clique if v <= k), tuple(w for w in other if w <= k),
                      mask & keep, other_mask & keep) for clique, other, mask, other_mask in sides)
        cross_k = tuple(c & keep for c in cross[:k + 1])
        entries.append((kept, cross_k,
                        tuple(tuple(w for w in range(k + 1) if c >> w & 1) for c in cross_k)))
    return entries


def random_two_clique_case(rng):
    """A random graph of two cliques of 1-5 vertices with shuffled indices,
    and an orientation of it: random directions on every edge (cliques may
    be cyclic), a random linear order, or random order on the cliques with
    random cross directions."""
    na, nb = rng.randint(1, 5), rng.randint(1, 5)
    labels = rng.sample("abcdefghij", na + nb)
    part_a, part_b = labels[:na], labels[na:]
    density = rng.random()
    cross = [(x, y) for x in part_a for y in part_b if rng.random() < density]
    g, part = join_graph(part_a, part_b, cross=cross)
    shuffled = list(g.vertices)
    rng.shuffle(shuffled)
    g = Graph.from_edges(shuffled, g.edges())
    mode = rng.randrange(3)
    rank = {v: rng.random() for v in g.vertices}
    arcs = []
    for u, v in g.edges():
        same_clique = (u in part_a) == (v in part_a)
        if mode == 0 or (mode == 2 and not same_clique):
            forward = rng.random() < 0.5
        else:
            forward = rank[u] < rank[v]
        arcs.append((u, v) if forward else (v, u))
    return g, part, Orientation.from_arcs(g, arcs)


class TestIndexCore:
    def test_partition_data_is_kept_per_graph(self):
        import wordrep.cobipartite as cob

        g, part = named_witness("T1bar")
        first = cob._cliques(g, part)
        assert cob._cliques(g, CoBipartitePartition(part.clique_a, part.clique_b)) is first
        sides, cross, cross_lists = first
        assert all(isinstance(x, tuple) for side in sides for x in side[:2])
        assert all(isinstance(x, tuple) for x in (sides, cross, cross_lists, *cross_lists))
        # an equal graph that lists its vertices in another order has other indices
        other = Graph.from_edges(g.vertices[::-1], g.edges())
        assert other == g and cob._cliques(other, part) != first
        bad = CoBipartitePartition(part.clique_a, part.clique_b[1:])
        for _ in range(2):
            with pytest.raises(GraphError):
                cob._cliques(g, bad)

    def test_core_stage_matches_the_report(self):
        import random

        import wordrep.cobipartite as cob

        rng = random.Random(4711)
        seen = set()
        for _ in range(10_000):
            g, part, o = random_two_clique_case(rng)
            _, report = is_semi_transitive_cobip(o, part)
            cliques = cob._cliques(g, part)
            stage = cob._failed_stage(o.out, cliques)
            assert stage == helper_stage(o, part), (part, o)
            # the labelled verdict checks acyclicity right after the cliques
            cyclic = stage != "clique-transitivity" and not is_acyclic(o)
            assert report.failed_stage == ("acyclicity" if cyclic else stage), (part, o)
            # the slot walk agrees on the cliques, on every vertex's type and
            # so on whether typing fails
            literal = literal_types(o, part)
            if literal is None:
                assert stage == "clique-transitivity", (part, o)
            else:
                _, (_, tags, outrank, inrank) = cob._typed(o, part)
                assert {i: (tags[i], outrank[i], inrank[i]) for i in literal} == literal
                for v in g.vertices:
                    assert classify_vertex(o, part, v) == literal_info(o, part, literal, v), (
                        part, o, v)
                invalid = any(tag == "Invalid" for tag, _, _ in literal.values())
                assert (stage == "typing") == invalid, (part, o)
            if report.failed_stage == "lemma42":
                assert report.details == tuple(check_condition_quad(o, part)), (part, o)
            seen.add(stage)
        # Lemmas 4.1 and 4.3 cannot fail once typing passes, on cyclic
        # input too (the proof is in _failed_stage).
        assert seen == {None, "clique-transitivity", "typing", "lemma42"}

    def test_core_stage_matches_the_slot_walk_exhaustively(self):
        # Every acyclic orientation of every small cross pattern, with the
        # cliques interleaved in index order: the core's stage is the slot
        # walk's typing verdict, then lemma 4.2's from its patterns.
        import wordrep.cobipartite as cob

        seen = Counter()
        for g, part in small_cross_patterns(3131):
            cliques = cob._cliques(g, part)
            for out in acyclic_outsets(g):
                stage = literal_stage(Orientation(g, out), part)
                assert cob._failed_stage(out, cliques) == stage, (g.adj, out)
                seen[stage] += 1
        assert seen == {"typing": 98_280, "lemma42": 26_484, None: 24_244}, seen

    def test_rank_mask_quad_test_matches_the_literal_lemma(self):
        # _quads_hold against the literal _lemma42 on every orientation with
        # transitive cliques of every 1+1 to 2+3 and 1+4 pattern, cyclic ones
        # included, and on every acyclic orientation of every 3+3 pattern;
        # shuffled labels interleave the cliques.
        import random

        import wordrep.cobipartite as cob

        def shuffled_patterns(na, nb):
            a, b = [f"a{i}" for i in range(na)], [f"b{j}" for j in range(nb)]
            for bits in range(1 << na * nb):
                g, part = cross_pattern(a, b, bits)
                yield Graph.from_edges(rng.sample(g.vertices, na + nb), g.edges()), part

        def quads_hold(out, cliques):
            n = len(out)
            rank, outrank, inrank = cob._ranks(out, cliques[0]), [0] * n, [0] * n
            # with tags, the typing fills every vertex's masks, past an Invalid one
            cob._typing(out, cliques, rank, outrank, inrank, [None] * n)
            holds = cob._quads_hold(cliques, rank, outrank, inrank)
            assert holds == (next(cob._lemma42(out, cliques), None) is None), (cliques, out)
            return holds

        rng = random.Random(4242)
        small = Counter()
        for na, nb in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (1, 4)):
            for g, part in shuffled_patterns(na, nb):
                cliques = cob._cliques(g, part)
                edges = [(g.index(u), g.index(v)) for u, v in g.edges()]
                for directions in range(1 << len(edges)):
                    out = [0] * len(g.vertices)
                    for e, (u, v) in enumerate(edges):
                        if directions >> e & 1:
                            out[u] |= 1 << v
                        else:
                            out[v] |= 1 << u
                    out = tuple(out)
                    if cob._ranks(out, cliques[0]) is not None:
                        small[quads_hold(out, cliques), is_acyclic(Orientation(g, out))] += 1
        assert small == {(True, True): 3_395, (False, True): 1_752,
                         (True, False): 1_764, (False, False): 4_288}, small
        acyclic = Counter(quads_hold(out, cob._cliques(g, part))
                          for g, part in shuffled_patterns(3, 3) for out in acyclic_outsets(g))
        assert acyclic == {True: 33_336, False: 111_816}, acyclic

    def test_newest_vertex_first_keeps_every_prefix_verdict(self):
        # _prefix_cliques puts the side opposite the newest vertex first and
        # that vertex first in its own clique; on every prefix of every walk
        # the check gives the verdict it gives with the cliques in partition
        # order (the argument is in _prefix_cliques).
        import wordrep.cobipartite as cob

        checked = rejected = 0
        for g, part in small_cross_patterns(3232):
            cliques = cob._cliques(g, part)
            newest_first = cob._prefix_cliques(cliques)
            in_order = clique_order_prefixes(cliques)
            for k, (entry, plain) in enumerate(zip(newest_first, in_order)):
                (opposite, own), *rest = entry
                assert own[0][0] == k and rest == list(plain[1:]), (g.adj, k)
                assert ({(frozenset(clique), mask) for clique, _, mask, _ in (opposite, own)}
                        == {(frozenset(clique), mask) for clique, _, mask, _ in plain[0]})

            def same_verdict(out):
                nonlocal checked, rejected
                verdict = cob._prefix_may_pass(out, newest_first)
                assert verdict == cob._prefix_may_pass(out, in_order), (g.adj, out)
                checked += 1
                rejected += not verdict
                return True

            for _ in acyclic_outsets(g, same_verdict):
                pass
        assert (checked, rejected) == (190_315, 143_932)


def drawn_orientations(g, threshold, seed):
    """The distinct orientations of a sampled sweep's seeded orders, in draw order."""
    import random

    rng = random.Random(seed)
    base = list(range(len(g.vertices)))
    return list(dict.fromkeys(outs_from_order(g.adj, rng.sample(base, len(base)))
                              for _ in range(threshold)))


def literal_sampled_sweep(g, part, threshold, seed):
    """A sampled sweep's JSON from the literal loop: find and the structural
    core on every distinct drawn orientation, in draw order."""
    import wordrep.cobipartite as cob

    searcher, cliques = ShortcutSearcher(g), cob._cliques(g, part)
    distinct = drawn_orientations(g, threshold, seed)
    semi, disagreements = 0, []
    for out in distinct:
        free = searcher.find(out) is None
        semi += free
        if free != (cob._failed_stage(out, cliques) is None):
            o = Orientation(g, out)
            structural, report = is_semi_transitive_cobip(o, part)
            disagreements.append({"arcs": [f"{u} -> {v}" for u, v in o.arcs()],
                                  "pathOracle": free, "structuralOracle": structural,
                                  "report": report.to_json()})
    return {"orientations": len(distinct), "semiTransitive": semi,
            "disagreements": disagreements, "sampled": True, "seed": seed,
            "ordersExamined": threshold}


def counted_prefix_checks(monkeypatch):
    """Patch both prefix checks of the pruned walk to count their calls;
    return the counts, keyed "free" and "may_pass"."""
    import wordrep.cobipartite as cob

    calls = {"free": 0, "may_pass": 0}
    prefix_free, may_pass = ShortcutSearcher.prefix_free, cob._prefix_may_pass

    def counted_free(self, out):
        calls["free"] += 1
        return prefix_free(self, out)

    def counted_may_pass(out, prefix_cliques):
        calls["may_pass"] += 1
        return may_pass(out, prefix_cliques)

    monkeypatch.setattr(ShortcutSearcher, "prefix_free", counted_free)
    monkeypatch.setattr(cob, "_prefix_may_pass", counted_may_pass)
    return calls


class TestAgreementSweep:
    def test_exhaustive_2_plus_2(self):
        labels_a, labels_b = ["a1", "a2"], ["b1", "b2"]
        crosspairs = [(a, b) for a in labels_a for b in labels_b]
        for bits in range(16):
            cross = [crosspairs[t] for t in range(4) if bits >> t & 1]
            g, part = join_graph(labels_a, labels_b, cross=cross)
            searcher = ShortcutSearcher(g)
            for out in acyclic_outsets(g):
                o = Orientation(g, out)
                path_verdict = searcher.find(out) is None
                structural_verdict, _ = is_semi_transitive_cobip(o, part)
                assert path_verdict == structural_verdict, (bits, o.arcs())

    def test_flagged_stream_matches_find(self, monkeypatch):
        # With every prefix accepted, one walk flags every acyclic
        # orientation with find's verdict, in the enumerator's order.
        import random

        import wordrep.cobipartite as cob

        monkeypatch.setattr(cob, "_prefix_may_pass", lambda out, prefix_cliques: True)
        rng = random.Random(31)
        cases = [cross_pattern(["a1", "a2"], ["b1", "b2"], bits) for bits in range(16)]
        cases += [cross_pattern(["a1", "a2"], ["b1", "b2", "b3"], bits) for bits in range(64)]
        for _ in range(20):
            g, part = cross_pattern(["a1", "a2", "a3"], ["b1", "b2", "b3"], rng.getrandbits(9))
            cases.append((Graph.from_edges(rng.sample(g.vertices, 6), g.edges()), part))
        flags = Counter()
        for g, part in cases:
            searcher = ShortcutSearcher(g)
            expected = [(out, searcher.find(out) is None) for out in acyclic_outsets(g)]
            assert list(cob._pruned_walk(g, cob._cliques(g, part))) == expected, g.adj
            flags.update(free for _, free in expected)
        assert flags[True] and flags[False], flags

    def test_stream_path_verdicts_match_find(self):
        # The full sweep's stream is the enumerator less the orientations
        # that both oracles reject: find sees a shortcut, and a vertex fails
        # to type or lemma 4.2 fails.  find on each orientation stays the
        # oracle of its path verdicts.
        import random

        import wordrep.cobipartite as cob

        def may_pass(o, part):
            return (all(classify_vertex(o, part, v).tag != "Invalid" for v in o.graph.vertices)
                    and not check_condition_quad(o, part))

        rng = random.Random(88)
        a, b = ["a1", "a2", "a3"], ["b1", "b2", "b3", "b4"]
        cases = [cross_pattern(["a1", "a2"], ["b1", "b2", "b3"], bits) for bits in range(64)] + [
            join_graph(a, b, cross=[(x, y) for x in a for y in b if rng.random() < 0.5])
            for _ in range(3)]
        dropped = 0
        for g, part in cases:
            searcher = ShortcutSearcher(g)
            flagged = [(out, searcher.find(out) is None) for out in acyclic_outsets(g)]
            expected = [(out, free) for out, free in flagged
                        if free or may_pass(Orientation(g, out), part)]
            dropped += len(flagged) - len(expected)
            cliques = cob._cliques(g, part)
            assert list(cob._pruned_walk(g, cliques)) == expected, g.adj
        assert dropped > 0

    def test_prefix_rejections_are_hereditary(self):
        # A prefix that _prefix_may_pass rejects lies under no orientation
        # the structural core accepts; shuffled labels interleave the cliques.
        import random

        import wordrep.cobipartite as cob

        rng = random.Random(2024)
        cases = [cross_pattern(["a1", "a2"], ["b1", "b2", "b3"], bits) for bits in range(64)]
        cases += [cross_pattern(["a1", "a2"], ["b1", "b2", "b3", "b4"], bits)
                  for bits in range(256)]
        for _ in range(20):
            g, part = cross_pattern(["a1", "a2", "a3"], ["b1", "b2", "b3"], rng.getrandbits(9))
            cases.append((Graph.from_edges(rng.sample(g.vertices, 6), g.edges()), part))
        rejected = 0
        for g, part in cases:
            cliques = cob._cliques(g, part)
            prefix_cliques = cob._prefix_cliques(cliques)
            under = [False] * (len(g.vertices) + 1)

            def record(out):
                k = len(out)
                under[k] = under[k - 1] or not cob._prefix_may_pass(out, prefix_cliques)
                return True

            for out in acyclic_outsets(g, record):
                if under[-1]:
                    rejected += 1
                    assert cob._failed_stage(out, cliques) is not None, (g.adj, out)
        assert rejected > 10_000

    def test_prefix_check_runs_only_the_hereditary_stages(self, monkeypatch):
        # Lemmas 4.1 and 4.3 read types that change as vertices join, so no
        # heredity proof covers them and the prefix check must not run them.
        # On acyclic prefixes neither can fail, so only patching them to
        # raise shows that they are not called.
        import random

        import wordrep.cobipartite as cob

        def unproven(*args):
            raise AssertionError("a lemma with no heredity proof ran on a prefix")

        for check in ("check_condition_ab", "check_condition_typec"):
            monkeypatch.setattr(cob, check, unproven)
        rng = random.Random(2121)
        passed = 0
        for _ in range(30):
            g, part = cross_pattern(["a1", "a2", "a3"], ["b1", "b2", "b3"], rng.getrandbits(9))
            g = Graph.from_edges(rng.sample(g.vertices, 6), g.edges())
            prefix_cliques = cob._prefix_cliques(cob._cliques(g, part))

            def every_prefix(out):
                nonlocal passed
                passed += cob._prefix_may_pass(out, prefix_cliques)
                return True

            for _ in acyclic_outsets(g, every_prefix):
                pass
        assert passed > 1_000

    def test_both_verdicts_survive_reversal(self):
        # Why a full sweep walks one mirror half: reversing every arc keeps
        # the path oracle's verdict and the structural core's (the proof is
        # in sweep_orientations), so the other half adds the same count and
        # no disagreement.  Shuffled labels interleave the cliques.
        import random

        import wordrep.cobipartite as cob

        def reversed_outs(out):
            return tuple(sum((mask >> i & 1) << j for j, mask in enumerate(out))
                         for i in range(len(out)))

        rng = random.Random(2516)
        cases = [cross_pattern(["a1", "a2"], ["b1", "b2"], bits) for bits in range(16)]
        cases += [cross_pattern(["a1", "a2"], ["b1", "b2", "b3"], bits) for bits in range(64)]
        for _ in range(20):
            g, part = cross_pattern(["a1", "a2", "a3"], ["b1", "b2", "b3"], rng.getrandbits(9))
            cases.append((Graph.from_edges(rng.sample(g.vertices, 6), g.edges()), part))
        checked = passed = 0
        for g, part in cases:
            searcher, cliques = ShortcutSearcher(g), cob._cliques(g, part)
            for out in acyclic_outsets(g):
                back = reversed_outs(out)
                free = searcher.find(out) is None
                core = cob._failed_stage(out, cliques) is None
                assert (searcher.find(back) is None) == free, (g.adj, out)
                assert (cob._failed_stage(back, cliques) is None) == core, (g.adj, out)
                checked += 1
                passed += core
        assert checked > 10_000 and passed > 1_000, (checked, passed)

    def test_full_sweep_work_counts(self, monkeypatch):
        # The walk is deterministic, so its work counts are exact regression
        # values: the prefix checks of a full sweep over one mirror half,
        # about half of those over the whole walk (T1bar 410 / 356, T2bar
        # 361 / 280, G1bar(4) 3,305 / 2,936).
        calls = counted_prefix_checks(monkeypatch)
        for name, n, free, passes in (("T1bar", None, 206, 178), ("T2bar", None, 181, 140),
                                      ("G1bar", 4, 1_653, 1_468)):
            g, part = named_witness(name, n)
            calls.update(free=0, may_pass=0)
            result = sweep_orientations(g, part, sample_threshold=math.factorial(len(g.vertices)))
            assert not result.sampled and result.disagreements == ()
            assert (calls["free"], calls["may_pass"]) == (free, passes), name

    def test_sampled_walk_work_counts(self, monkeypatch):
        # A sampled sweep that walks reads one mirror half too, so it makes
        # the full sweep's prefix checks, about half of those over the whole
        # walk (T1bar 410 / 356, T2bar 361 / 280, co-P(3) 185 / 124).
        calls = counted_prefix_checks(monkeypatch)
        for (g, part), threshold, free, passes in (
                (named_witness("T1bar"), 2500, 206, 178), (named_witness("T2bar"), 2500, 181, 140),
                (complement_path_graph(3), 400, 93, 62)):
            calls.update(free=0, may_pass=0)
            result = sweep_orientations(g, part, sample_threshold=threshold, seed=3)
            assert result.sampled and result.disagreements == ()
            assert (calls["free"], calls["may_pass"]) == (free, passes), g.vertices

    def test_full_sweep_core_call_counts(self, monkeypatch):
        # The structural core's calls in the same sweeps, on prefixes (one
        # per prefix check above) and on the complete orientations the walk
        # yields, which the three negatives never reach; co-P(4) does.  A
        # cheaper core shows as time, not as fewer calls.
        import wordrep.cobipartite as cob

        core = cob._failed_stage
        for g, part, on_prefixes, on_complete in (
                (*named_witness("T1bar"), 178, 0), (*named_witness("T2bar"), 140, 0),
                (*named_witness("G1bar", 4), 1_468, 0), (*complement_path_graph(4), 254, 15)):
            cliques = cob._cliques(g, part)
            calls = Counter()

            def counted(out, given):
                calls["complete" if given is cliques else "prefix"] += 1
                return core(out, given)

            monkeypatch.setattr(cob, "_failed_stage", counted)
            result = sweep_orientations(g, part, sample_threshold=math.factorial(len(g.vertices)))
            assert not result.sampled and result.disagreements == ()
            assert (calls["prefix"], calls["complete"]) == (on_prefixes, on_complete), calls

    def test_family_semi_transitive_counts(self):
        # Full sweeps of the positive families, whose counts check the
        # doubling of the half's count.
        from wordrep.constructions import complement_crown_graph, complement_cycle_graph
        from wordrep.graphs import GeneralizedCrownParams

        cases = []
        for n in (3, 4, 5):
            cases += [(complement_path_graph(n), 8 * n - 2),
                      (complement_path_graph(n, even=False), 8 * n - 6),
                      (complement_cycle_graph(n), 8 * n),
                      (complement_crown_graph(GeneralizedCrownParams(n, 1)), 2 * n * n)]
        cases += [(complement_crown_graph(GeneralizedCrownParams(4, 2)), 72),
                  (complement_crown_graph(GeneralizedCrownParams(5, 2)), 40)]
        for (g, part), semi in cases:
            result = sweep_orientations(g, part, sample_threshold=math.factorial(len(g.vertices)))
            assert not result.sampled and result.disagreements == ()
            assert result.semi_transitive == semi, (g.vertices, result.semi_transitive)

    def test_sweep_helper_counts(self):
        g, part = join_graph(["a1", "a2"], ["b1", "b2"], cross=[])
        result = sweep_orientations(g, part)
        assert result.orientations == 4  # two disjoint edges, 2x2 directions
        assert result.semi_transitive == 4
        assert result.disagreements == ()
        assert not result.sampled
        # no edge, so no mirror half and nothing to double; a sampled sweep
        # (2 orders, 1 orientation) that walks must not count it twice as
        # its own reverse
        g, part = join_graph(["a1"], ["b1"], cross=[])
        result = sweep_orientations(g, part)
        assert (result.orientations, result.semi_transitive) == (1, 1)
        result = sweep_orientations(g, part, sample_threshold=1)
        assert result.sampled and (result.orientations, result.semi_transitive) == (1, 1)

    def test_complete_join_all_orientations_pass(self):
        g, part = join_graph(["a1", "a2", "a3"], ["b1", "b2", "b3"])
        result = sweep_orientations(g, part)
        assert result.orientations == 720  # acyclic tournaments on six vertices
        assert result.semi_transitive == 720
        assert result.disagreements == ()

    def test_disagreements_merge_in_stream_order(self, monkeypatch):
        # A structural core that rejects everything disagrees with the
        # path oracle on exactly the semi-transitive orientations.
        import wordrep.cobipartite as cob

        monkeypatch.setattr(cob, "_failed_stage", lambda out, cliques: "typing")
        g, part = complement_path_graph(2)
        result = sweep_orientations(g, part)
        assert len(result.disagreements) == result.semi_transitive > 1
        searcher = ShortcutSearcher(g)
        expected = [Orientation(g, out).arcs() for out in acyclic_outsets(g)
                    if searcher.find(out) is None]
        assert [d["arcs"] for d in result.disagreements] == [
            [f"{u} -> {v}" for u, v in arcs] for arcs in expected]

    def test_sampled_disagreements_merge_in_draw_order(self, monkeypatch):
        # The same with a sampled sweep that reads its verdicts off the walk
        # (co-P(3) has 258 acyclic orientations and 720 orders): the
        # disagreements are the shortcut-free draws, in draw order.
        import wordrep.cobipartite as cob

        monkeypatch.setattr(cob, "_failed_stage", lambda out, cliques: "typing")
        g, part = complement_path_graph(3)
        result = sweep_orientations(g, part, sample_threshold=400, seed=6)
        assert result.sampled and len(result.disagreements) == result.semi_transitive > 1
        searcher = ShortcutSearcher(g)
        expected = [Orientation(g, out).arcs() for out in drawn_orientations(g, 400, 6)
                    if searcher.find(out) is None]
        assert [d["arcs"] for d in result.disagreements] == [
            [f"{u} -> {v}" for u, v in arcs] for arcs in expected]

    def test_sampled_sweep_matches_the_literal_loop(self):
        # A threshold at the orientation count reads the draws' verdicts off
        # the walk; one below it runs find on each draw.  Both must give
        # the literal loop's result.
        import random

        rng = random.Random(5150)
        cases = [cross_pattern(["a1", "a2"], ["b1", "b2", "b3"], bits) for bits in range(64)]
        for shape in [(3, 3)] * 10 + [(3, 4)] * 10:
            g, part = cross_pattern([f"a{i}" for i in range(shape[0])],
                                    [f"b{i}" for i in range(shape[1])],
                                    rng.getrandbits(shape[0] * shape[1]))
            cases.append((Graph.from_edges(rng.sample(g.vertices, len(g.vertices)),
                                           g.edges()), part))
        walked = 0
        for seed, (g, part) in enumerate(cases):
            count = count_acyclic_orientations(g)
            for threshold in {max(count - 1, 1), count}:
                if math.factorial(len(g.vertices)) <= threshold:
                    continue
                walked += threshold >= count
                expected = literal_sampled_sweep(g, part, threshold, seed)
                assert sweep_orientations(g, part, sample_threshold=threshold,
                                          seed=seed).to_json() == expected, (g.adj, threshold)
        assert walked == 83, walked

    def test_sampled_sweep_walks_only_under_the_orientation_count(self, monkeypatch):
        # T1bar has 1,752 acyclic orientations and 5,040 orders.
        import wordrep.cobipartite as cob

        walks, finds = [], []
        enumerate_outsets, find = cob.acyclic_outsets, ShortcutSearcher.find

        def counted_walk(*args):
            walks.append(args)
            return enumerate_outsets(*args)

        def counted_find(self, out):
            finds.append(out)
            return find(self, out)

        monkeypatch.setattr(cob, "acyclic_outsets", counted_walk)
        monkeypatch.setattr(ShortcutSearcher, "find", counted_find)
        g, part = named_witness("T1bar")
        for threshold in (2500, 1752):
            walked = sweep_orientations(g, part, sample_threshold=threshold, seed=3)
            assert walked.sampled and (len(walks), len(finds)) == (1, 0)
            assert walks[0][2] == cob._one_mirror_half(g)  # the walk reads one mirror half
            del walks[:]
        drawn = sweep_orientations(g, part, sample_threshold=500, seed=3)
        assert drawn.sampled and (len(walks), len(finds)) == (0, drawn.orientations)

    def test_full_sweep_walks_the_enumerator_once(self, monkeypatch):
        import wordrep.cobipartite as cob

        calls = []
        enumerate_outsets = cob.acyclic_outsets

        def counted(*args):
            calls.append(args)
            return enumerate_outsets(*args)

        monkeypatch.setattr(cob, "acyclic_outsets", counted)
        g, part = named_witness("T2bar")
        result = sweep_orientations(g, part)
        assert result.orientations > 0 and result.disagreements == ()
        assert len(calls) == 1

    def test_sampled_sweep_draws_once(self, monkeypatch):
        # The sweep draws and dedups the sampled orders once, in one _drawn call.
        import wordrep.cobipartite as cob

        draws = []
        drawn = cob._drawn

        def counted(adj, count, seed):
            draws.append(count)
            return drawn(adj, count, seed)

        monkeypatch.setattr(cob, "_drawn", counted)
        g, part = complement_path_graph(3)
        first = sweep_orientations(g, part, sample_threshold=300, seed=4)
        assert draws == [300]
        assert first.sampled and first.orientations > 3
        second = sweep_orientations(g, part, sample_threshold=300, seed=4)
        assert draws == [300, 300]
        assert first.to_json() == second.to_json()

    def test_drawn_matches_the_literal_sample_loop(self):
        # _drawn runs Random.sample's pool branch on the generator's bits; it
        # must give the literal loop's distinct orientations, in draw order,
        # on every CPython the package supports.  Counts above n! repeat
        # orders, so duplicates occur.
        import random

        import wordrep.cobipartite as cob

        rng = random.Random(3030)
        cases = []
        for n in range(1, 13):
            labels = [f"v{i}" for i in range(n)]
            g = Graph.from_edges(labels, [e for e in combinations(labels, 2)
                                          if rng.random() < 0.5])
            for seed in (0, 7, rng.randrange(1 << 30)):
                for count in {3, 40, math.factorial(n) + 1} if n <= 5 else (3, 40):
                    cases.append((g, count, seed))
        for bits in (0b1011_0110_0101, 0b0110_1101_1010):
            g, _ = cross_pattern(["a1", "a2", "a3"], ["b1", "b2", "b3", "b4"], bits)
            cases.append((g, 2500, bits))
        duplicated = 0
        for g, count, seed in cases:
            expected = drawn_orientations(g, count, seed)
            got = cob._drawn(g.adj, count, seed)
            assert list(got.items()) == [(out, p) for p, out in enumerate(expected)], (
                g.adj, count, seed)
            duplicated += len(got) < count
        assert 0 < duplicated < len(cases), duplicated

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_sweep_rejects_a_negative_seed(self, seed):
        # Random seeds from abs(seed), so -5 would draw the orders of 5.
        g, part = named_witness("T1bar")
        with pytest.raises(ValueError, match="seed"):
            sweep_orientations(g, part, sample_threshold=500, seed=seed)

    def test_partition_validated_once_per_sweep(self, monkeypatch):
        calls = []
        validate = CoBipartitePartition.validate

        def counted(part, g):
            calls.append(part)
            return validate(part, g)

        monkeypatch.setattr(CoBipartitePartition, "validate", counted)
        g, part = complement_path_graph(3)
        result = sweep_orientations(g, part)
        assert result.orientations > 100 and result.disagreements == ()
        assert len(calls) == 1

    def test_sweep_sampling_is_seeded(self):
        g, part = named_witness("T1bar")
        a = sweep_orientations(g, part, sample_threshold=500, seed=9)
        b = sweep_orientations(g, part, sample_threshold=500, seed=9)
        assert a.to_json() == b.to_json()
        assert a.sampled and a.seed == 9
        assert a.orientations <= 500

    @pytest.mark.parametrize("threshold", [0, -3])
    def test_sweep_rejects_non_positive_sample_threshold(self, threshold):
        g, part = named_witness("T1bar")
        with pytest.raises(ValueError, match="sample_threshold"):
            sweep_orientations(g, part, sample_threshold=threshold)

    def test_random_3_plus_4_patterns(self):
        import random

        rng = random.Random(834)
        labels_a, labels_b = ["a1", "a2", "a3"], ["b1", "b2", "b3", "b4"]
        crosspairs = [(a, b) for a in labels_a for b in labels_b]
        for _ in range(10):
            cross = [e for e in crosspairs if rng.random() < 0.5]
            g, part = join_graph(labels_a, labels_b, cross=cross)
            result = sweep_orientations(g, part)
            assert result.disagreements == (), cross

    def test_random_4_plus_4_patterns_sampled_orders(self):
        import random

        rng = random.Random(835)
        labels_a = ["a1", "a2", "a3", "a4"]
        labels_b = ["b1", "b2", "b3", "b4"]
        crosspairs = [(a, b) for a in labels_a for b in labels_b]
        for _ in range(5):
            cross = [e for e in crosspairs if rng.random() < 0.5]
            g, part = join_graph(labels_a, labels_b, cross=cross)
            result = sweep_orientations(g, part, sample_threshold=4000, seed=7)
            assert result.sampled
            assert result.disagreements == (), cross
