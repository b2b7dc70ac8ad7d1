"""Orientation engine: enumeration, shortcut search, exhaustive deciders."""

import random
from itertools import combinations, permutations

import pytest

from wordrep.graphs import GeneralizedCrownParams, Graph, GraphError, named_witness
from wordrep.words import Word, alternates, represents
from wordrep.constructions import complement_crown_graph, complement_path_graph
from wordrep.orientations import (
    CapExceededError,
    Orientation,
    OrientationError,
    acyclic_outsets,
    bounded_representation_number,
    enumerate_acyclic_orientations,
    find_noncomparability_witness,
    find_semi_transitive_orientation,
    find_shortcut,
    find_uniform_word,
    is_acyclic,
    is_comparability,
    is_semi_transitive,
    is_transitive,
    is_word_representable,
    representable_via_dominant,
)


def complete_graph(labels):
    return Graph.from_edges(labels, combinations(labels, 2))


def random_graph(rng, labels, p=0.5):
    return Graph.from_edges(
        labels, [e for e in combinations(labels, 2) if rng.random() < p]
    )


class TestAcyclicity:
    def test_directed_triangle_is_cyclic(self):
        g = complete_graph(["a", "b", "c"])
        o = Orientation.from_arcs(g, [("a", "b"), ("b", "c"), ("c", "a")])
        assert not is_acyclic(o)
        assert not is_semi_transitive(o)

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
        checked = 0
        for n in range(1, 6):
            labels = [f"v{i}" for i in range(n)]
            pairs = list(combinations(labels, 2))
            for bits in range(1 << len(pairs)):
                checked += check_against_literal(Graph.from_edges(
                    labels, [e for t, e in enumerate(pairs) if bits >> t & 1]))
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
        assert is_transitive(o)

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
        assert sum(1 for _ in enumerate_acyclic_orientations(
            complete_graph(["a", "b", "c"]))) == 6
        assert sum(1 for _ in enumerate_acyclic_orientations(
            Graph.from_edges(["a", "b"], [("a", "b")]))) == 2
        p3 = Graph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert sum(1 for _ in enumerate_acyclic_orientations(p3)) == 4

    def test_all_yielded_are_acyclic_and_distinct(self):
        rng = random.Random(3)
        g = random_graph(rng, [f"v{i}" for i in range(5)])
        seen = set()
        for o in enumerate_acyclic_orientations(g):
            assert is_acyclic(o)
            assert o.out not in seen
            seen.add(o.out)
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

    def test_cap(self):
        g = complete_graph([f"v{i}" for i in range(11)])
        with pytest.raises(CapExceededError):
            next(enumerate_acyclic_orientations(g))

    def test_matches_linear_orders_on_all_small_graphs(self):
        # The literal definition: every acyclic orientation is induced by
        # some linear order.  Checked on every labelled graph of <= 5 vertices.
        for n in range(1, 6):
            labels = [f"v{i}" for i in range(n)]
            pairs = list(combinations(labels, 2))
            for bits in range(1 << len(pairs)):
                g = Graph.from_edges(
                    labels, [e for t, e in enumerate(pairs) if bits >> t & 1])
                yielded = list(acyclic_outsets(g))
                literal = {Orientation.from_order(g, p).out
                           for p in permutations(g.vertices)}
                assert len(yielded) == len(set(yielded)), (n, bits)
                assert set(yielded) == literal, (n, bits)

    def test_known_counts(self):
        from math import factorial

        for n in range(1, 8):
            assert sum(1 for _ in acyclic_outsets(
                complete_graph([f"v{i}" for i in range(n)]))) == factorial(n)
        for n in range(3, 9):
            labels = [f"c{i}" for i in range(n)]
            cycle = Graph.from_edges(
                labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])
            assert sum(1 for _ in acyclic_outsets(cycle)) == 2 ** n - 2
        for name, n, count in (("T1bar", None, 1752), ("T2bar", None, 1704),
                               ("G1bar", 4, 60120)):
            g, _ = named_witness(name, n)
            assert sum(1 for _ in acyclic_outsets(g)) == count, name


class TestRepresentability:
    def test_complete_graphs(self):
        assert is_word_representable(complete_graph(list("abcde")))

    def test_co_p6_is_representable(self):
        g, _ = complement_path_graph(3)
        o = find_semi_transitive_orientation(g)
        assert o is not None
        assert is_semi_transitive(o)

    def test_co_c8_is_representable(self):
        from wordrep.constructions import complement_cycle_graph

        g, _ = complement_cycle_graph(4)
        assert is_word_representable(g)

    def test_witnesses_are_not(self):
        for name, n in (("T1bar", None), ("T2bar", None)):
            g, _ = named_witness(name, n)
            assert not is_word_representable(g), name

    def test_wheel_on_six_vertices_is_not(self):
        cyc = [(f"c{i}", f"c{i % 5 + 1}") for i in range(1, 6)]
        hub = [("h", f"c{i}") for i in range(1, 6)]
        g = Graph.from_edges(["h"] + [f"c{i}" for i in range(1, 6)], cyc + hub)
        assert not is_word_representable(g)

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
            assert is_transitive(o)

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
                assert is_semi_transitive(o)


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

    def test_agrees_with_exhaustive_search(self):
        # random graphs with a forced dominant vertex, both deciders
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(4, 7)
            labels = [f"v{i}" for i in range(n - 1)]
            edges = [e for e in combinations(labels, 2) if rng.random() < 0.5]
            edges += [("x", v) for v in labels]
            g = Graph.from_edges(labels + ["x"], edges)
            assert representable_via_dominant(g, "x") == is_word_representable(g)


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
        assert o.serialize() == "b -> a\nb -> c\n"

    def test_from_arcs_validation(self):
        g = Graph.from_edges(["a", "b"], [("a", "b")])
        with pytest.raises(OrientationError):
            Orientation.from_arcs(g, [])
        with pytest.raises(OrientationError):
            Orientation.from_arcs(g, [("a", "b"), ("b", "a")])
        with pytest.raises(GraphError):
            Orientation.from_arcs(g, [("a", "c")])
