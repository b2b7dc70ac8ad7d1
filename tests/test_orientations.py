"""Orientation engine: enumeration, shortcut search, exhaustive deciders."""

import random
from itertools import chain, combinations, islice, permutations

import pytest

from wordrep import orientations
from wordrep.graphs import GeneralizedCrownParams, Graph, GraphError, named_witness
from wordrep.words import Word, alternates, represents
from wordrep.constructions import (
    complement_crown_graph,
    complement_cycle_graph,
    complement_path_graph,
)
from wordrep.orientations import (
    CapExceededError,
    Orientation,
    OrientationError,
    ShortcutSearcher,
    _forces_a_reversal,
    _one_mirror_half,
    _zero_source_pin,
    acyclic_outsets,
    bounded_representation_number,
    count_acyclic_orientations,
    find_noncomparability_witness,
    find_semi_transitive_orientation,
    find_shortcut,
    find_uniform_word,
    is_acyclic,
    is_comparability,
    is_word_representable,
    outs_transitive,
    representable_via_dominant,
)


def complete_graph(labels):
    return Graph.from_edges(labels, combinations(labels, 2))


def random_graph(rng, labels, p=0.5):
    return Graph.from_edges(
        labels, [e for e in combinations(labels, 2) if rng.random() < p]
    )


def labelled_graphs(n):
    """Every labelled graph on the vertices v0..v(n-1)."""
    labels = [f"v{i}" for i in range(n)]
    pairs = list(combinations(labels, 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(labels, [e for t, e in enumerate(pairs) if bits >> t & 1])


def small_and_random_graphs():
    """Every labelled graph on at most 5 vertices, then 500 seeded random
    6-vertex graphs."""
    for n in range(1, 6):
        yield from labelled_graphs(n)
    rng = random.Random(6)
    for _ in range(500):
        yield random_graph(rng, [f"v{i}" for i in range(6)])


def wheel5():
    """W5: a 5-cycle c1..c5 and a hub h adjacent to all of it, hub first."""
    cyc = [(f"c{i}", f"c{i % 5 + 1}") for i in range(1, 6)]
    hub = [("h", f"c{i}") for i in range(1, 6)]
    return Graph.from_edges(["h"] + [f"c{i}" for i in range(1, 6)], cyc + hub)


def labelled_copies(g):
    """Every distinct graph on g's vertex labels isomorphic to g."""
    seen = set()
    for perm in permutations(g.vertices):
        relabel = dict(zip(g.vertices, perm))
        edges = frozenset(frozenset((relabel[a], relabel[b])) for a, b in g.edges())
        if edges not in seen:
            seen.add(edges)
            yield Graph.from_edges(g.vertices, [tuple(sorted(e)) for e in edges])


def first_decided_edge(g):
    """(k, u): k the first vertex with an earlier neighbour, u the lowest one;
    None for an edgeless graph."""
    return min(((k, u) for k, mask in enumerate(g.adj) for u in range(k) if mask >> u & 1),
               default=None)


def zero_source_pin(g):
    """Whether an orientation, or a prefix of one on vertices 0..j, has no
    arc into vertex 0 and u->k, where k is the first vertex with an earlier
    neighbour other than 0 and u the lowest such one."""
    first = min(((k, u) for k, mask in enumerate(g.adj) for u in range(1, k) if mask >> u & 1),
                default=None)

    def pinned(out):
        if any(mask & 1 for mask in out):
            return False
        return first is None or len(out) <= first[0] or out[first[1]] >> first[0] & 1

    return pinned


def has_pinned_arcs(pinned):
    """Whether an orientation has u->k for every u in ``pinned[k]``."""
    return lambda out: all(out[u] >> k & 1 for k, mask in enumerate(pinned)
                           for u in range(k) if mask >> u & 1)


def reject_keeps_state(searcher):
    """``searcher.prefix_free``, asserting that a rejected prefix leaves the
    accepted per-depth state as it was."""
    def state():
        return [entry and (tuple(entry[0]), tuple(entry[1])) for entry in searcher._accepted]

    def check(out):
        before = state()
        accepted = searcher.prefix_free(out)
        assert accepted or state() == before, out
        return accepted

    return check


def reversed_outs(out):
    """The out-bitsets with every arc reversed."""
    return tuple(sum((mask >> i & 1) << j for j, mask in enumerate(out))
                 for i in range(len(out)))


def subset_recurrence_count(g):
    """The literal acyclic-orientation count: an acyclic orientation of a
    non-empty vertex set S has a non-empty independent set of sources, so
    inclusion-exclusion gives a(S) = sum of (-1)^(|I|+1) a(S - I) over the
    non-empty independent I within S (Stanley 1973), 3^n steps."""
    adj = g.adj
    size = 1 << len(adj)
    # sign[I] = (-1)^(|I|+1) for an independent set I, 0 otherwise.
    sign = [-1] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        sign[mask] = 0 if adj[low.bit_length() - 1] & rest else -sign[rest]
    count = [1] * size
    for s in range(1, size):
        total = 0
        sub = s
        while sub:
            total += sign[sub] * count[s ^ sub]
            sub = (sub - 1) & s
        count[s] = total
    return count[-1]


def with_one_more_vertex(g):
    """g plus a vertex "x" joined to each set of g's vertices in turn."""
    n = len(g.vertices)
    for bits in range(1 << n):
        extra = [("x", v) for i, v in enumerate(g.vertices) if bits >> i & 1]
        yield Graph.from_edges(g.vertices + ("x",), g.edges() + extra)


class TestAcyclicity:
    def test_directed_triangle_is_cyclic(self):
        g = complete_graph(["a", "b", "c"])
        o = Orientation.from_arcs(g, [("a", "b"), ("b", "c"), ("c", "a")])
        assert not is_acyclic(o)

    def test_transitive_tournament_is_acyclic(self):
        g = complete_graph(list("abcd"))
        o = Orientation.from_order(g, list("abcd"))
        assert is_acyclic(o)

    def test_order_induced_orientations_are_acyclic(self):
        g, _ = complement_path_graph(2)
        for order in permutations(g.vertices):
            assert is_acyclic(Orientation.from_order(g, order))


def literal_shortcut(o):
    """The definition by path enumeration: some arc u->v closes a directed
    u-v path on at least 4 vertices whose induced subdigraph is not
    transitive."""
    arcs = set(o.arcs())
    succ = {v: [b for a, b in arcs if a == v] for v in o.graph.vertices}

    def paths(path, target):
        if path[-1] == target:
            yield path
            return
        for w in succ[path[-1]]:
            if w not in path:
                yield from paths(path + [w], target)

    def transitive(members):
        return all((a, c) in arcs for a in members for b in members for c in members
                   if (a, b) in arcs and (b, c) in arcs)

    return any(len(path) >= 4 and not transitive(path)
               for u, v in arcs for path in paths([u], v))


def check_against_literal(g):
    """find_shortcut against the definition on every acyclic orientation of
    g, each witness checked; returns the number of orientations."""
    count = 0
    for out in acyclic_outsets(g):
        o = Orientation(g, out)
        w = find_shortcut(o)
        assert (w is not None) == literal_shortcut(o), o
        count += 1
        if w is None:
            continue
        arcs = set(o.arcs())
        path = w.path_vertices
        assert len(path) >= 4 and len(set(path)) == len(path), w
        assert all(step in arcs for step in zip(path, path[1:])), w
        assert w.shortcutting_edge == (path[0], path[-1]) and w.shortcutting_edge in arcs, w
        x, y = w.nontransitive_pair
        assert path.index(x) < path.index(y) and not g.has_edge(x, y), w
    return count


class TestShortcut:
    def test_matches_literal_definition_on_all_small_graphs(self):
        # Every acyclic orientation of every labelled graph on <= 5 vertices.
        checked = sum(check_against_literal(g) for n in range(1, 6) for g in labelled_graphs(n))
        assert checked == 29_853

    def test_chordless_directed_c4_is_a_shortcut(self):
        g = Graph.from_edges(
            list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
        )
        o = Orientation.from_arcs(g, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        w = find_shortcut(o)
        assert w is not None
        assert w.path_vertices == ("a", "b", "c", "d")
        assert w.shortcutting_edge == ("a", "d")
        assert w.to_json()["type"] == "shortcut"

    def test_cross_clique_path_pattern(self):
        # path s -> x -> y -> t with shortcutting edge s -> t and both
        # diagonals missing
        g = Graph.from_edges(
            ["s", "x", "y", "t"],
            [("s", "x"), ("x", "y"), ("y", "t"), ("s", "t")],
        )
        o = Orientation.from_arcs(g, [("s", "x"), ("x", "y"), ("y", "t"), ("s", "t")])
        assert find_shortcut(o) is not None

    def test_transitive_tournament_has_none(self):
        g = complete_graph(list("abcde"))
        o = Orientation.from_order(g, list("abcde"))
        assert find_shortcut(o) is None
        assert outs_transitive(o.out)

    def test_rejects_cyclic_input(self):
        g = complete_graph(["a", "b", "c"])
        o = Orientation.from_arcs(g, [("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(OrientationError):
            find_shortcut(o)

    def test_complete_graph_order_orientations_shortcut_free(self):
        g = complete_graph(list("abcde"))
        for order in permutations(g.vertices):
            assert find_shortcut(Orientation.from_order(g, order)) is None

    def test_matches_literal_definition_on_random_six_vertex_graphs(self):
        rng = random.Random(29)
        for _ in range(30):
            check_against_literal(random_graph(rng, [f"v{i}" for i in range(6)]))


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in acyclic_outsets(complete_graph(["a", "b", "c"]))) == 6
        assert sum(1 for _ in acyclic_outsets(Graph.from_edges(["a", "b"], [("a", "b")]))) == 2
        p3 = Graph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert sum(1 for _ in acyclic_outsets(p3)) == 4

    def test_all_yielded_are_acyclic_and_distinct(self):
        rng = random.Random(3)
        g = random_graph(rng, [f"v{i}" for i in range(5)])
        seen = set()
        for out in acyclic_outsets(g):
            assert is_acyclic(Orientation(g, out))
            assert out not in seen
            seen.add(out)
        # cross-check the count against direct 2^E filtering
        edges = g.edges()
        brute = 0
        for bits in range(1 << len(edges)):
            arcs = [
                (u, v) if bits >> e & 1 else (v, u)
                for e, (u, v) in enumerate(edges)
            ]
            if is_acyclic(Orientation.from_arcs(g, arcs)):
                brute += 1
        assert brute == len(seen)

    def test_matches_linear_orders_on_all_small_graphs(self):
        # The literal definition: every acyclic orientation is induced by
        # some linear order.  Checked on every labelled graph of <= 5 vertices.
        for n in range(1, 6):
            for g in labelled_graphs(n):
                yielded = list(acyclic_outsets(g))
                literal = {Orientation.from_order(g, p).out
                           for p in permutations(g.vertices)}
                assert len(yielded) == len(set(yielded)), g.adj
                assert set(yielded) == literal, g.adj

    def test_known_counts(self):
        from math import factorial

        def counts(g):
            # The enumeration and the subset recurrence, side by side.
            return sum(1 for _ in acyclic_outsets(g)), count_acyclic_orientations(g)

        for n in range(1, 8):
            assert counts(complete_graph([f"v{i}" for i in range(n)])) == (factorial(n),) * 2
        for n in range(3, 9):
            labels = [f"c{i}" for i in range(n)]
            cycle = Graph.from_edges(
                labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])
            assert counts(cycle) == (2 ** n - 2,) * 2
        for name, n, count in (("T1bar", None, 1752), ("T2bar", None, 1704),
                               ("G1bar", 4, 60120)):
            g, _ = named_witness(name, n)
            assert counts(g) == (count, count), name

    def test_recurrence_counts_the_enumeration(self):
        for g in small_and_random_graphs():
            assert count_acyclic_orientations(g) == sum(1 for _ in acyclic_outsets(g)), g.adj
        assert count_acyclic_orientations(Graph.from_edges([], [])) == 1

    def test_partition_count_matches_the_subset_recurrence(self):
        # The count sums signed independent-set partitions; the subset
        # recurrence it replaced stays its oracle.
        rng = random.Random(18)
        seeded = (random_graph(rng, [f"v{i}" for i in range(n)], p)
                  for n in range(6, 11) for p in (0.0, 0.2, 0.5, 0.8, 1.0) for _ in range(4))
        for g in chain((g for n in range(6) for g in labelled_graphs(n)), seeded):
            assert count_acyclic_orientations(g) == subset_recurrence_count(g), g.adj

    def test_empty_and_single_vertex_graphs_have_one_orientation(self):
        for g in (Graph.from_edges([], []), Graph.from_edges(["a"], [])):
            n = len(g.vertices)
            expected = [(0,) * n]
            assert list(acyclic_outsets(g)) == expected
            assert list(acyclic_outsets(g, ShortcutSearcher(g).prefix_free)) == expected
            assert list(acyclic_outsets(g, outs_transitive)) == expected
            assert count_acyclic_orientations(g) == 1

    def test_count_is_bounded(self):
        from wordrep.orientations import COUNT_MAX_VERTICES

        labels = [f"v{i}" for i in range(COUNT_MAX_VERTICES + 1)]
        path = list(zip(labels, labels[1:]))
        assert count_acyclic_orientations(Graph.from_edges(labels, path)) is None
        # a forest with m edges has 2^m acyclic orientations
        forest = Graph.from_edges(labels[1:], path[1:])
        assert count_acyclic_orientations(forest) == 2 ** (COUNT_MAX_VERTICES - 1)


class TestPrunedSearch:
    """The pruned deciders against the first hit of the unpruned scan."""

    def test_deciders_return_the_first_hit_of_the_plain_scan(self):
        # The semi-transitive decider's first hit among the orientations
        # with vertex 0 a source and the first edge away from 0 forward.
        for g in small_and_random_graphs():
            searcher = ShortcutSearcher(g)
            pinned = zero_source_pin(g)
            semi = next((out for out in acyclic_outsets(g)
                         if pinned(out) and searcher.find(out) is None), None)
            found = find_semi_transitive_orientation(g)
            assert (found and found.out) == semi, g.adj
            transitive = next((out for out in acyclic_outsets(g) if outs_transitive(out)), None)
            found = is_comparability(g)
            assert (found and found.out) == transitive, g.adj

    def test_mirror_half_and_its_reverse_are_every_semi_transitive_orientation(self):
        # Reversal keeps semi-transitivity, so the half with the first
        # decided edge u->k, together with its reverse, is the whole set,
        # and the half is exactly the set's members with u->k.
        for g in small_and_random_graphs():
            first = first_decided_edge(g)
            searcher = ShortcutSearcher(g)
            full = [out for out in acyclic_outsets(g) if searcher.find(out) is None]
            kept = list(acyclic_outsets(g, searcher.prefix_free, _one_mirror_half(g)))
            if first is None:
                assert kept == full, g.adj
                continue
            k, u = first
            assert kept == [out for out in full if out[u] >> k & 1], g.adj
            assert sorted(full) == sorted(kept + [reversed_outs(o) for o in kept]), g.adj

    def test_zero_source_pin_keeps_every_verdict(self):
        # Some semi-transitive orientation has vertex 0 a source and the
        # first edge away from 0 forward whenever any has.
        for g in small_and_random_graphs():
            searcher = ShortcutSearcher(g)
            semi = next((out for out in acyclic_outsets(g) if searcher.find(out) is None), None)
            assert (find_semi_transitive_orientation(g) is None) == (semi is None), g.adj

    def test_comparability_needs_no_source_at_vertex_0(self):
        # Why is_comparability takes no zero-source pin: this graph has a
        # transitive orientation, but none with v0 a source: v0->v1 and
        # v0->v2 force v4->v1 and v3->v2, and then v1->v2 leaves
        # v4->v1->v2 unclosed and v2->v1 leaves v3->v2->v1 unclosed.
        labels = [f"v{i}" for i in range(5)]
        g = Graph.from_edges(labels, [("v0", "v1"), ("v0", "v2"), ("v1", "v2"),
                                      ("v1", "v4"), ("v2", "v3")])
        found = is_comparability(g)
        assert found is not None and outs_transitive(found.out)
        transitive = [out for out in acyclic_outsets(g) if outs_transitive(out)]
        assert transitive and all(any(mask & 1 for mask in out) for out in transitive)

    def test_decider_work_counts(self, monkeypatch):
        # The searches are deterministic, so their work counts are exact
        # regression values.  The semi-transitive core keeps vertex 0 a
        # source and pins one more edge, about a sixth of the tree on these
        # negatives.  The public deciders run the pruned core only when no
        # refutation answers first: a negative crown complement costs
        # is_comparability no transitivity check at all.
        calls = []
        prefix_free = ShortcutSearcher.prefix_free
        transitive = orientations.outs_transitive
        monkeypatch.setattr(ShortcutSearcher, "prefix_free",
                            lambda self, out: calls.append(1) or prefix_free(self, out))
        monkeypatch.setattr(orientations, "outs_transitive",
                            lambda out: calls.append(1) or transitive(out))

        def checks(decide, g):
            calls.clear()
            assert decide(g) is None
            return len(calls)

        def semi_core(g):
            return next(acyclic_outsets(g, ShortcutSearcher(g).prefix_free, _zero_source_pin(g)),
                        None)

        t1bar, t2bar, g1bar3 = (named_witness(name, n)[0]
                                for name, n in (("T1bar", None), ("T2bar", None), ("G1bar", 3)))
        for g, core, public in ((t1bar, 47, 0), (t2bar, 37, 37), (g1bar3, 47, 0),
                                (wheel5(), 11, 0)):
            assert checks(semi_core, g) == core, g.vertices
            assert checks(find_semi_transitive_orientation, g) == public, g.vertices
        for params in (GeneralizedCrownParams(3, 0), GeneralizedCrownParams(4, 0)):
            assert checks(is_comparability, complement_crown_graph(params)[0]) == 0, params
        for g, count in ((complement_path_graph(3)[0], 7), (complement_path_graph(4)[0], 11),
                         (complete_graph([f"v{i}" for i in range(5)]), 5)):
            calls.clear()
            assert is_comparability(g) is not None
            assert len(calls) == count, g.vertices

    def test_public_deciders_match_the_pruned_core(self):
        # A neighbourhood refutation (the semi-transitive decider) or an
        # implication-class conflict (comparability) only ever answers None
        # where the pruned core does, and a positive is the core's first hit.
        # The semi-transitive core is the plain scan's first hit among the
        # orientations with vertex 0 a source and the first edge away from 0
        # forward, found here by pruning on find and the test's own pin.
        rng = random.Random(18)
        seeded = (random_graph(rng, [f"v{i}" for i in range(n)])
                  for n in (6, 7) for _ in range(150))
        extended = (h for name in ("T1bar", "T2bar")
                    for h in with_one_more_vertex(named_witness(name)[0]))
        for g in chain((g for n in range(1, 6) for g in labelled_graphs(n)), seeded,
                       extended, with_one_more_vertex(wheel5())):
            searcher, pinned = ShortcutSearcher(g), zero_source_pin(g)
            semi = next(acyclic_outsets(g, lambda out: pinned(out) and searcher.find(out) is None),
                        None)
            found = find_semi_transitive_orientation(g)
            assert (found and found.out) == semi, g.adj
            core = next(acyclic_outsets(g, outs_transitive), None)
            found = is_comparability(g)
            assert (found and found.out) == core, g.adj

    def test_implication_classes_decide_comparability(self):
        # A conflict in the implication classes exactly when the pruned
        # transitivity scan finds nothing, on the whole graph and inside a
        # vertex mask.
        for n in range(1, 6):
            for g in labelled_graphs(n):
                full = (1 << n) - 1
                scan = next(acyclic_outsets(g, outs_transitive), None)
                assert _forces_a_reversal(g.adj, full) == (scan is None), g.adj
                inner = g.induced(g.vertices[1:]).adj
                assert _forces_a_reversal(g.adj, full - 1) == _forces_a_reversal(inner, full >> 1)

    def test_neighbourhood_scan_matches_every_neighbourhood(self):
        # The scan skips vertices of degree below 5, yet answers as a scan
        # of every neighbourhood does.
        rng = random.Random(19)
        refuted = 0
        for n in (7, 8, 9):
            for p in (0.5, 0.7):
                for _ in range(100):
                    g = random_graph(rng, [f"v{i}" for i in range(n)], p)
                    every = any(_forces_a_reversal(g.adj, mask) for mask in g.adj)
                    assert orientations._non_comparability_neighbourhood(g.adj) == every, g.adj
                    refuted += every
        assert refuted == 88

    def test_neighbourhood_scan_work_counts(self, monkeypatch):
        # One implication-class check per vertex of degree at least 5, up
        # to the first refuting one.
        calls = []
        forces = orientations._forces_a_reversal
        monkeypatch.setattr(orientations, "_forces_a_reversal",
                            lambda adj, mask: calls.append(1) or forces(adj, mask))
        for g, count, refuted in ((complement_path_graph(4)[0], 8, False),
                                  (complement_cycle_graph(4)[0], 8, False),
                                  (named_witness("T2bar")[0], 3, False),
                                  (named_witness("T1bar")[0], 1, True)):
            calls.clear()
            assert orientations._non_comparability_neighbourhood(g.adj) == refuted
            assert len(calls) == count, g.vertices

    def test_pruned_stream_is_the_filtered_stream(self):
        # A hereditary predicate drops only branches with no accepted
        # completion, and the order of what is left is unchanged.  Pinned
        # arcs, with no predicate, keep exactly the orientations that have
        # them; the third pin, from each vertex's highest earlier neighbour,
        # leaves a free neighbour that can reach a pinned one.  The
        # incremental check gives find's filter, alone, over one mirror half
        # and under the zero-source pin, and a prefix it rejects leaves its
        # accepted state untouched.
        for n in range(6):
            for g in labelled_graphs(n):
                searcher = ShortcutSearcher(g)

                def free(out):
                    return searcher.find(out) is None

                for keep in (free, outs_transitive):
                    assert list(acyclic_outsets(g, keep)) == [
                        out for out in acyclic_outsets(g) if keep(out)], g.adj
                first = first_decided_edge(g)

                def in_half(out):
                    return first is None or out[first[1]] >> first[0] & 1

                pinned = zero_source_pin(g)
                top = [max((1 << u for u in range(k) if mask >> u & 1), default=0)
                       for k, mask in enumerate(g.adj)]
                for pin, keep in ((_one_mirror_half(g), in_half), (_zero_source_pin(g), pinned),
                                  (top, has_pinned_arcs(top))):
                    assert list(acyclic_outsets(g, None, pin)) == [
                        out for out in acyclic_outsets(g) if keep(out)], g.adj
                expected = [out for out in acyclic_outsets(g) if free(out)]
                incremental = reject_keeps_state(ShortcutSearcher(g))
                assert list(acyclic_outsets(g, incremental)) == expected, g.adj
                assert list(acyclic_outsets(g, incremental, _one_mirror_half(g))) == [
                    out for out in expected if in_half(out)], g.adj
                assert list(acyclic_outsets(g, incremental, _zero_source_pin(g))) == [
                    out for out in expected if pinned(out)], g.adj

    def test_incremental_check_matches_find(self):
        # find, a full reach/far pass per orientation, stays the oracle of
        # the incremental prefix check.
        rng = random.Random(7)
        sevens = (random_graph(rng, [f"v{i}" for i in range(7)]) for _ in range(300))
        for g in chain(small_and_random_graphs(), sevens):
            searcher = ShortcutSearcher(g)
            expected = [out for out in acyclic_outsets(g) if searcher.find(out) is None]
            assert list(acyclic_outsets(g, searcher.prefix_free)) == expected, g.adj

    def test_incremental_check_survives_an_abandoned_search(self):
        # A search stopped at its first hit leaves per-depth state behind;
        # the next search from the empty prefix overwrites it before use.
        g, _ = complement_path_graph(4)
        searcher = ShortcutSearcher(g)
        expected = [out for out in acyclic_outsets(g) if searcher.find(out) is None]
        for stop in (1, 5, len(expected)):
            assert list(islice(acyclic_outsets(g, searcher.prefix_free), stop)) == expected[:stop]
        assert list(acyclic_outsets(g, searcher.prefix_free)) == expected


class TestRepresentability:
    def test_complete_graphs(self):
        assert is_word_representable(complete_graph(list("abcde")))

    def test_co_p6_is_representable(self):
        g, _ = complement_path_graph(3)
        o = find_semi_transitive_orientation(g)
        assert o is not None
        assert is_acyclic(o) and find_shortcut(o) is None

    def test_co_c8_is_representable(self):
        from wordrep.constructions import complement_cycle_graph

        g, _ = complement_cycle_graph(4)
        assert is_word_representable(g)

    def test_witnesses_are_not(self):
        for name, n in (("T1bar", None), ("T2bar", None)):
            g, _ = named_witness(name, n)
            assert not is_word_representable(g), name

    def test_wheel_on_six_vertices_is_not(self):
        assert not is_word_representable(wheel5())

    def test_semi_transitive_orientation_restricts_transitively_to_cliques(self):
        # any clique inside a semi-transitive orientation carries a
        # transitive tournament with one source and one sink
        from wordrep.cobipartite import clique_order

        g, part = complement_crown_graph(GeneralizedCrownParams(3, 1))
        o = find_semi_transitive_orientation(g)
        assert o is not None
        for clique in (part.clique_a, part.clique_b):
            order = clique_order(o, clique)  # raises if not transitive
            assert set(order.vertices) == set(clique)


class TestComparability:
    def test_co_paths_are_comparability(self):
        for n in (1, 2, 3):
            g, _ = complement_path_graph(n)
            o = is_comparability(g)
            assert o is not None
            assert outs_transitive(o.out)

    def test_prism_is_not(self):
        g, _ = complement_crown_graph(GeneralizedCrownParams(3, 0))
        assert is_comparability(g) is None

    def test_complete_graph_is(self):
        assert is_comparability(complete_graph(list("abcd"))) is not None

    def test_transitive_implies_semi_transitive(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, [f"v{i}" for i in range(5)])
            o = is_comparability(g)
            if o is not None:
                assert is_acyclic(o) and find_shortcut(o) is None


def literal_odd_walk(g, max_len):
    """The backtracking definition: for k = 5, 7, ... up to min(max_len,
    2|E|), each start vertex in label order, the first walk of k vertices
    in label order, all of them at or after the start, with no repeated
    ordered pair and no triangular chord, wrap included."""
    adj = g.adj
    by_label = sorted(range(len(g.vertices)), key=g.vertices.__getitem__)
    rank = {i: r for r, i in enumerate(by_label)}

    def close_ok(walk, used):
        last, first = walk[-1], walk[0]
        return (adj[last] >> first & 1 and (last, first) not in used
                and not adj[walk[-2]] >> first & 1 and not adj[last] >> walk[1] & 1)

    def extend(walk, used, k, min_rank):
        if len(walk) == k:
            return list(walk) if close_ok(walk, used) else None
        cur = walk[-1]
        for nxt in by_label:
            if rank[nxt] < min_rank or not adj[cur] >> nxt & 1 or (cur, nxt) in used:
                continue
            if len(walk) >= 2 and adj[walk[-2]] >> nxt & 1:
                continue
            used.add((cur, nxt))
            walk.append(nxt)
            found = extend(walk, used, k, min_rank)
            walk.pop()
            used.remove((cur, nxt))
            if found:
                return found
        return None

    for k in range(5, min(max_len, 2 * g.edge_count) + 1, 2):
        for start in by_label:
            found = extend([start], set(), k, rank[start])
            if found:
                return tuple(g.vertices[i] for i in found)
    return None


def walk_bounds(g):
    """The bounds 5, 7 and 2|E| + 1, the last one at least 5."""
    return 5, 7, max(5, 2 * g.edge_count + 1)


def validate_odd_walk(g, walk):
    """Independent validity check for a chordless odd closed walk."""
    k = len(walk)
    assert k % 2 == 1 and k >= 5
    pairs = set()
    for i in range(k):
        a, b = walk[i], walk[(i + 1) % k]
        assert g.has_edge(a, b), (a, b)
        assert (a, b) not in pairs, (a, b)
        pairs.add((a, b))
    for i in range(k):
        a, c = walk[i], walk[(i + 2) % k]
        assert a == c or not g.has_edge(a, c), (a, c)


class TestOddWalkWitness:
    def test_c5_is_its_own_witness(self):
        g = Graph.from_edges(
            list("abcde"),
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")],
        )
        walk = find_noncomparability_witness(g, 9)
        assert walk is not None and len(walk) == 5
        validate_odd_walk(g, walk)

    def test_prism_has_a_witness(self):
        g, _ = complement_crown_graph(GeneralizedCrownParams(3, 0))
        walk = find_noncomparability_witness(g, 9)
        assert walk is not None
        validate_odd_walk(g, walk)

    def test_comparability_graphs_have_none(self):
        assert find_noncomparability_witness(complete_graph(list("abcd")), 9) is None
        for n in (2, 3):
            g, _ = complement_path_graph(n)
            assert find_noncomparability_witness(g, 9) is None

    def test_agrees_with_transitive_search_on_random_graphs(self):
        rng = random.Random(47)
        for _ in range(40):
            g = random_graph(rng, [f"v{i}" for i in range(rng.randint(5, 6))])
            walk = find_noncomparability_witness(g, 9)
            comparability = is_comparability(g) is not None
            if comparability:
                assert walk is None
            if walk is not None:
                validate_odd_walk(g, walk)
                assert not comparability

    def test_matches_the_backtracking_search_on_all_small_graphs(self):
        # Every labelled graph on at most 5 vertices: 1,099 graphs.
        for n in range(1, 6):
            for g in labelled_graphs(n):
                for bound in walk_bounds(g):
                    walk = find_noncomparability_witness(g, bound)
                    assert walk == literal_odd_walk(g, bound), (g.edges(), bound)
                    if walk is not None:
                        validate_odd_walk(g, walk)

    def test_matches_the_backtracking_search_on_seeded_larger_graphs(self):
        # Most small random graphs are comparability graphs, which the
        # exhaustive test covers; these are the seeded ones that are not.
        rng = random.Random(16)
        for n, count in ((6, 30), (7, 15)):
            while count:
                g = random_graph(rng, [f"v{i}" for i in range(n)], rng.uniform(0.3, 0.7))
                if is_comparability(g) is not None:
                    continue
                count -= 1
                for bound in walk_bounds(g):
                    walk = find_noncomparability_witness(g, bound)
                    assert walk == literal_odd_walk(g, bound), (g.edges(), bound)

    def test_labels_not_indices_order_the_walk(self):
        # The vertex order is the reverse of the label order, so the walk
        # must start from the last index.
        g = Graph.from_edges(list("edcba"), [("a", "b"), ("b", "c"), ("c", "d"),
                                             ("d", "e"), ("a", "e")])
        assert find_noncomparability_witness(g, 5) == ("a", "b", "c", "d", "e")

    def test_rejects_bad_bounds(self):
        g = complete_graph(["a", "b"])
        with pytest.raises(GraphError):
            find_noncomparability_witness(g, 4)
        with pytest.raises(GraphError):
            find_noncomparability_witness(g, 3)


class TestDominantVertexRoute:
    def test_hub_joined_to_k4(self):
        g = complete_graph(list("abcde"))
        assert representable_via_dominant(g, "a")

    def test_g1bar(self):
        g, _ = named_witness("G1bar", 3)
        assert not representable_via_dominant(g, "v")

    def test_rejects_non_dominant(self):
        g, _ = complement_path_graph(2)
        with pytest.raises(OrientationError):
            representable_via_dominant(g, "1")

    def test_past_the_search_cap(self):
        # 13 vertices: the implication classes decide with no search.
        g, _ = named_witness("G1bar", 6)
        assert not representable_via_dominant(g, "v")
        co_path, _ = complement_path_graph(6)
        cone = Graph.from_edges(co_path.vertices + ("z",),
                                co_path.edges() + [("z", v) for v in co_path.vertices])
        assert len(cone.vertices) == 13
        assert representable_via_dominant(cone, "z")

    def test_agrees_with_exhaustive_search(self):
        # every labelled graph on at most 5 vertices, then random graphs,
        # each with a dominant vertex x added; both deciders
        def cone(g):
            return Graph.from_edges(g.vertices + ("x",),
                                    g.edges() + [("x", v) for v in g.vertices])

        rng = random.Random(13)
        randoms = []
        for _ in range(200):
            labels = [f"v{i}" for i in range(rng.randint(3, 6))]
            randoms.append(random_graph(rng, labels))
        for g in chain(*map(labelled_graphs, range(6)), randoms):
            g = cone(g)
            assert representable_via_dominant(g, "x") == is_word_representable(g), g.adj


def first_uniform_word(g, k):
    """The lexicographically first k-uniform word over vertex indices that
    starts with the first vertex and represents g by literal ``alternates``."""
    n = len(g.vertices)
    left = [k] * n
    word = []

    def extend():
        if len(word) == n * k:
            w = Word(tuple(g.vertices[i] for i in word))
            if all(alternates(w, x, y) == g.has_edge(x, y)
                   for x, y in combinations(g.vertices, 2)):
                return w
            return None
        for i in range(n) if word else (0,):
            if left[i]:
                left[i] -= 1
                word.append(i)
                found = extend()
                word.pop()
                left[i] += 1
                if found:
                    return found
        return None

    return extend()


def uniform_words(n, k):
    """Every k-uniform word over the digits 0..n-1 (n <= 10) that starts
    with 0, as a string, in lexicographic order, as ``first_uniform_word``
    walks them."""
    words = []
    left = [k] * n
    left[0] -= 1

    def extend(word):
        if len(word) == n * k:
            words.append(word)
        for i in range(n):
            if left[i]:
                left[i] -= 1
                extend(word + str(i))
                left[i] += 1

    extend("0")
    return words


def alternation_graph(n):
    """A function of a word over the digits 0..n-1 that gives the adjacency
    bitsets of the graph the word represents, by the literal definition:
    the restriction to a pair has no letter twice in a row."""
    digits = [str(i) for i in range(n)]
    pairs = [(i, j, digits[i] * 2, digits[j] * 2,
              {ord(c): None for c in digits if c not in (digits[i], digits[j])})
             for i, j in combinations(range(n), 2)]

    def read(word):
        adj = [0] * n
        for i, j, twice_i, twice_j, others in pairs:
            pair = word.translate(others)
            if twice_i not in pair and twice_j not in pair:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        return tuple(adj)

    return read


def first_copy_order(adj, initial):
    """Out-bitsets orienting each edge from the earlier to the later letter
    of ``initial``, a word's first copies as a digit string."""
    rank = {int(c): pos for pos, c in enumerate(initial)}
    return tuple(sum(1 << j for j in range(len(adj)) if mask >> j & 1 and rank[i] < rank[j])
                 for i, mask in enumerate(adj))


class TestUniformWordSearch:
    def test_representation_numbers(self):
        assert bounded_representation_number(complete_graph(["1", "2", "3"])) == 1
        assert bounded_representation_number(complete_graph(["1", "2"])) == 1
        empty = Graph.from_edges(["1", "2", "3"], [])
        assert bounded_representation_number(empty) == 2

    def test_found_words_verify(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_graph(rng, [f"v{i}" for i in range(rng.randint(2, 5))])
            k = bounded_representation_number(g)
            assert k is not None
            w = find_uniform_word(g, k)
            assert represents(w, g).ok
            if k > 1:
                assert find_uniform_word(g, k - 1) is None

    def test_matches_brute_force_on_small_graphs(self):
        cases = 0
        for n, max_k in ((1, 3), (2, 3), (3, 3), (4, 2)):
            labels = ["q", "c", "x", "a"][:n]  # not in sorted order
            pairs = list(combinations(labels, 2))
            for mask in range(1 << len(pairs)):
                g = Graph.from_edges(labels, [e for b, e in enumerate(pairs) if mask >> b & 1])
                for k in range(1, max_k + 1):
                    assert find_uniform_word(g, k) == first_uniform_word(g, k), (g.adj, k)
                    cases += 1
        assert cases == 161

    def test_decider_precheck_keeps_the_literal_answer(self, monkeypatch):
        # After k = 1 fails, bounded_representation_number scans the
        # neighbourhoods and skips the longer searches on a negative; on a
        # positive it walks the decider's pinned tree itself, never asking
        # the decider, and runs the guided searches on what it walks.  The
        # literal loop over the unguided find_uniform_word stays its oracle.
        # Up to isomorphism, W5 is the one graph on at most 6 vertices with
        # no representing word.
        calls = []
        monkeypatch.setattr(orientations, "find_semi_transitive_orientation",
                            lambda *args: calls.append(args))

        def literal(g):
            return next((k for k in (1, 2, 3) if find_uniform_word(g, k) is not None), None)

        w5 = wheel5()
        assert [find_uniform_word(w5, k) for k in (1, 2, 3)] == [None] * 3
        copies = list(labelled_copies(w5))
        assert len(copies) == 72
        rng = random.Random(66)
        sixes = [random_graph(rng, [f"v{i}" for i in range(6)]) for _ in range(300)]
        for g in chain(copies, sixes):
            assert bounded_representation_number(g, 3) == literal(g), g.adj
        assert calls == []

    def test_guided_number_matches_the_literal_loop(self):
        # Every labelled graph on at most 5 vertices, every bound.
        for n in range(1, 6):
            for g in labelled_graphs(n):
                number = next((k for k in (1, 2, 3) if find_uniform_word(g, k) is not None),
                              None)
                for max_k in (1, 2, 3):
                    expected = number if number is not None and number <= max_k else None
                    assert bounded_representation_number(g, max_k) == expected, (g.adj, max_k)

    def test_guided_search_matches_brute_force(self):
        # On every labelled graph of at most 4 vertices and every acyclic
        # orientation with vertex 0 a source, the guided search finds a word
        # exactly when some k-uniform representant starting with 0 has first
        # copies ordering the orientation, and it finds the
        # lexicographically first one, which represents and follows it.
        cases = hits = 0
        for n in range(1, 5):
            for k in (1, 2, 3):
                read = alternation_graph(n)
                by_initial = {}
                for word in uniform_words(n, k):
                    by_initial.setdefault((read(word), "".join(dict.fromkeys(word))), word)
                # (graph, orientation) -> the first word inducing both
                first = {}
                for (adj, initial), word in by_initial.items():
                    first.setdefault((adj, first_copy_order(adj, initial)),
                                     Word(tuple(f"v{c}" for c in word)))
                for g in labelled_graphs(n):
                    for out in acyclic_outsets(g):
                        if any(mask & 1 for mask in out):
                            continue
                        found = find_uniform_word(g, k, Orientation(g, out))
                        assert found == first.get((g.adj, out)), (g.adj, out, k)
                        if found is not None:
                            hits += 1
                            assert represents(found, g).ok
                            word = "".join(str(g.index(x)) for x in found)
                            assert read(word) == g.adj
                            assert first_copy_order(g.adj, "".join(dict.fromkeys(word))) == out
                        cases += 1
        assert (cases, hits) == (3 * 215, 398)

    def test_guided_work_counts(self, monkeypatch):
        # The searches are deterministic, so their work counts are exact
        # regression values.  The prism has 3 pinned orientations; none
        # has a guided 2-uniform word, and the first has a 3-uniform one.
        walked, searches = [], []
        outsets, search = orientations.acyclic_outsets, orientations.find_uniform_word

        def counted_outsets(*args):
            for out in outsets(*args):
                walked.append(out)
                yield out

        def counted_search(g, k, orientation=None):
            found = search(g, k, orientation)
            searches.append((k, orientation is not None, found is not None))
            return found

        monkeypatch.setattr(orientations, "acyclic_outsets", counted_outsets)
        monkeypatch.setattr(orientations, "find_uniform_word", counted_search)
        prism = complement_crown_graph(GeneralizedCrownParams(3, 0))[0]
        assert bounded_representation_number(prism, 3) == 3
        assert len(walked) == 3
        assert searches == [(1, False, False)] + [(2, True, False)] * 3 + [(3, True, True)]

    def test_isolated_vertices_stay_out_of_the_guided_search(self, monkeypatch):
        # Past k = 1, an isolated vertex x turns a k-uniform word w of the
        # rest into w x^k, so the guided searches run on the rest alone, and
        # an edgeless graph needs none.  On these two graphs a search over
        # all 6 vertices spent 2.5 ms (the first) and 766 alternation steps
        # (the second) refuting a pinned orientation before its hit.
        searched = []
        search = orientations.find_uniform_word

        def counted_search(g, k, orientation=None):
            searched.append((len(g.vertices), k))
            return search(g, k, orientation)

        monkeypatch.setattr(orientations, "find_uniform_word", counted_search)
        labels = [f"v{i}" for i in range(6)]
        for edges in ([("v0", "v4"), ("v2", "v4"), ("v2", "v5"), ("v4", "v5")],
                      [("v0", "v3"), ("v1", "v3"), ("v1", "v4"), ("v3", "v4")]):
            g = Graph.from_edges(labels, edges)
            assert [search(g, k) is not None for k in (1, 2)] == [False, True]
            searched.clear()
            assert bounded_representation_number(g, 3) == 2
            # k = 1 on the graph, then k = 2 on the rest's first two pinned
            # orientations, of which the second has a word
            assert searched == [(6, 1), (4, 2), (4, 2)], edges
        searched.clear()
        assert bounded_representation_number(Graph.from_edges(labels, []), 3) == 2
        assert searched == [(6, 1)]

    def test_guided_search_rejects_a_foreign_orientation(self):
        # An orientation of another graph once raised a bare IndexError (4
        # vertices against 3) or guided the search by arcs on non-edges
        # (a->b, b->c of the path, against the single edge ac: a b b c a c).
        # Raw out-bitsets are checked as an Orientation is built.
        g = Graph.from_edges("abc", [("a", "c")])
        path = Graph.from_edges("abc", [("a", "b"), ("b", "c")])
        foreign = [
            (Orientation.from_order(Graph.from_edges("abcd", [("a", "b")]), "abcd"),
             "another graph"),
            (Orientation.from_arcs(path, [("a", "b"), ("b", "c")]), "another graph"),
            ((0b100, 0, 0, 0), "4 out-bitsets for 3 vertices"),
            ((0b001, 0, 0b100), "non-edge"),  # a loop at a
        ]
        for orientation, message in foreign:
            with pytest.raises(OrientationError, match=message):
                find_uniform_word(g, 2, orientation)
        assert str(find_uniform_word(g, 2, Orientation.from_arcs(g, [("a", "c")]))) == "a b b c a c"
        assert find_uniform_word(g, 2, (0, 0, 0b001)) is None  # c->a: 0 is no source

    def test_rejects_a_non_positive_multiplicity_bound(self):
        for max_k in (0, -1):
            with pytest.raises(GraphError, match="at least 1"):
                bounded_representation_number(complete_graph(["a", "b"]), max_k)

    def test_caps(self):
        g = complete_graph([f"v{i}" for i in range(7)])
        with pytest.raises(CapExceededError):
            bounded_representation_number(g)
        with pytest.raises(CapExceededError):
            bounded_representation_number(complete_graph(["a"]), max_k=4)


class TestSerialization:
    def test_arc_lines(self):
        g = Graph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        o = Orientation.from_order(g, ["b", "a", "c"])
        assert o.arcs() == [("b", "a"), ("b", "c")]

    def test_construction_rejects_malformed_out_bitsets(self):
        # The bare constructor once accepted these: co-P(2) without the
        # decider's arc 1->2 read as 2->1 in arcs() and passed the shortcut
        # test, and the path's a->b, a->c listed an invented c->b.
        g = Graph.from_edges("abc", [("a", "c")])
        path = Graph.from_edges("abc", [("a", "b"), ("b", "c")])
        co_p2, _ = complement_path_graph(2)
        out = list(find_semi_transitive_orientation(co_p2).out)
        i, j = co_p2.index("1"), co_p2.index("2")
        assert out[i] >> j & 1
        out[i] &= ~(1 << j)
        malformed = [
            (g, (0b100, 0, 0, 0), "4 out-bitsets for 3 vertices"),
            (g, (0b100, 0), "2 out-bitsets"),
            (g, (0b001, 0, 0b100), "non-edge"),  # a loop at a
            (g, (0b100, 0, 0b001), "exactly once"),  # ac both ways
            (g, (0, 0, 0), "exactly once"),
            (path, (0b110, 0, 0), "non-edge"),
            (co_p2, tuple(out), "exactly once"),
        ]
        for graph, bits, message in malformed:
            with pytest.raises(OrientationError, match=message):
                Orientation(graph, bits)

    def test_from_arcs_validation(self):
        g = Graph.from_edges(["a", "b"], [("a", "b")])
        with pytest.raises(OrientationError):
            Orientation.from_arcs(g, [])
        with pytest.raises(OrientationError):
            Orientation.from_arcs(g, [("a", "b"), ("b", "a")])
        with pytest.raises(GraphError):
            Orientation.from_arcs(g, [("a", "c")])
