"""Graph construction, family builders, and the named witnesses."""

import random
from itertools import combinations

import pytest

from wordrep.graphs import (
    BipartiteSpec,
    CoBipartitePartition,
    GeneralizedCrownParams,
    Graph,
    GraphError,
    cobipartite_from_bipartite,
    crown_removed_neighbors,
    cycle_bipartite,
    format_graph_text,
    generalized_crown,
    named_witness,
    parse_graph_text,
    path_bipartite,
    primed,
    unprimed,
)


def k_n(n):
    labels = [str(i) for i in range(1, n + 1)]
    return Graph.from_edges(labels, combinations(labels, 2))


def brute_complement_edges(vertices, edges):
    edge_set = {frozenset(e) for e in edges}
    return {
        frozenset((u, v))
        for u, v in combinations(vertices, 2)
        if frozenset((u, v)) not in edge_set
    }


class TestComplement:
    def test_complete_becomes_empty(self):
        assert k_n(3).complement().edge_count == 0

    def test_involution_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 10)
            labels = [f"v{i}" for i in range(n)]
            edges = [e for e in combinations(labels, 2) if rng.random() < 0.5]
            g = Graph.from_edges(labels, edges)
            assert g.complement().complement() == g

    def test_path_p4_complement_edges(self):
        # brute-force oracle: non-edges of the path 1-1'-2-2'
        verts = ["1", "1'", "2", "2'"]
        path_edges = [("1", "1'"), ("1'", "2"), ("2", "2'")]
        expected = brute_complement_edges(verts, path_edges)
        g = Graph.from_edges(verts, path_edges).complement()
        assert g.edge_set() == frozenset(expected)
        assert g.edge_set() == {
            frozenset(("1", "2")), frozenset(("1'", "2'")), frozenset(("1", "2'")),
        }


class TestPathAndCycle:
    def test_path_n1_single_edge(self):
        spec = path_bipartite(1)
        assert spec.cross_edges == {("1", "1'")}

    def test_path_n2_is_p4(self):
        spec = path_bipartite(2)
        assert spec.cross_edges == {("1", "1'"), ("2", "1'"), ("2", "2'")}

    def test_path_n3_is_p6(self):
        # the 6-vertex path 1-1'-2-2'-3-3'
        spec = path_bipartite(3)
        g = spec.graph()
        assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 2, 2, 2, 2]
        assert g.has_edge("1", "1'") and g.has_edge("2", "1'") and g.has_edge("3", "2'")

    def test_cycle_closes_the_path(self):
        path = path_bipartite(4)
        cycle = cycle_bipartite(4)
        assert cycle.cross_edges == path.cross_edges | {("1", "4'")}
        g = cycle.graph()
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_cycle_n2_is_c4(self):
        g = cycle_bipartite(2).graph()
        assert g.edge_count == 4
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_cycle_rejects_n1(self):
        with pytest.raises(GraphError):
            cycle_bipartite(1)

    def test_families_stop_at_the_vertex_cap(self):
        # 2n = 64 vertices is the largest member; n = 33 is refused before
        # its parts and edges are built.
        for build in (path_bipartite, cycle_bipartite,
                      lambda n: generalized_crown(GeneralizedCrownParams(n, 0))):
            assert len(cobipartite_from_bipartite(build(32))[0].vertices) == 64
            with pytest.raises(GraphError, match=r"too many vertices \(66 > 64\)"):
                build(33)


class TestGeneralizedCrown:
    def test_crown_is_k33_minus_matching(self):
        spec = generalized_crown(GeneralizedCrownParams(3, 0))
        assert ("1", "1'") not in spec.cross_edges
        assert len(spec.cross_edges) == 6  # 9 minus the matching

    def test_all_matchings_removed(self):
        spec = generalized_crown(GeneralizedCrownParams(4, 3))
        assert spec.cross_edges == frozenset()

    def test_n4_k1_nonneighbors(self):
        # every i misses exactly i' and (i+1 mod 4)'
        params = GeneralizedCrownParams(4, 1)
        spec = generalized_crown(params)
        for i in range(1, 5):
            missing = {
                primed(j) for j in range(1, 5)
                if (unprimed(i), primed(j)) not in spec.cross_edges
            }
            assert missing == {primed(i), primed(i % 4 + 1)}
            assert missing == crown_removed_neighbors(params, i)

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            GeneralizedCrownParams(3, 3)
        with pytest.raises(GraphError):
            GeneralizedCrownParams(0, 0)

    def test_complement_degree_is_n_plus_k(self):
        for n in range(1, 9):
            for k in range(0, n):
                g, _ = cobipartite_from_bipartite(
                    generalized_crown(GeneralizedCrownParams(n, k))
                )
                assert all(g.degree(v) == n + k for v in g.vertices), (n, k)


class TestCobipartite:
    def test_all_cross_edges_gives_disjoint_cliques(self):
        spec = BipartiteSpec(
            ("a", "b"), ("x", "y"),
            frozenset((u, v) for u in "ab" for v in "xy"),
        )
        g, part = cobipartite_from_bipartite(spec)
        assert g.edge_set() == {frozenset(("a", "b")), frozenset(("x", "y"))}
        part.validate(g)

    def test_no_cross_edges_gives_complete_graph(self):
        spec = BipartiteSpec(("a", "b"), ("x", "y"), frozenset())
        g, _ = cobipartite_from_bipartite(spec)
        assert g.edge_count == 6

    def test_co_p4_cross_edge(self):
        g, part = cobipartite_from_bipartite(path_bipartite(2))
        cross = {
            frozenset((x, y))
            for x in part.clique_a for y in part.clique_b
            if g.has_edge(x, y)
        }
        assert cross == {frozenset(("1", "2'"))}

    def test_partition_invariant_holds_for_families(self):
        specs = [path_bipartite(3), cycle_bipartite(3),
                 generalized_crown(GeneralizedCrownParams(4, 2))]
        for spec in specs:
            g, part = cobipartite_from_bipartite(spec)
            part.validate(g)

    def test_partition_validation_rejects_non_clique(self):
        g = Graph.from_edges(["a", "b", "c"], [("a", "b")])
        with pytest.raises(GraphError):
            CoBipartitePartition(("a", "b", "c"), ()).validate(g)
        with pytest.raises(GraphError, match="cliqueA"):  # a repeated label
            CoBipartitePartition(("a", "b", "a"), ("c",)).validate(g)

    def test_partition_from_lists_stores_tuples(self):
        # A partition built from lists once failed the memo lookup of the
        # structural oracle with a bare TypeError (unhashable list).
        from wordrep.cobipartite import is_semi_transitive_cobip
        from wordrep.orientations import Orientation

        g = Graph.from_edges(["a", "b", "c"], [("a", "b")])
        part = CoBipartitePartition(["a", "b"], ["c"])
        assert (part.clique_a, part.clique_b) == (("a", "b"), ("c",))
        assert part == CoBipartitePartition(("a", "b"), ("c",))
        ok, _ = is_semi_transitive_cobip(Orientation.from_order(g, "abc"), part)
        assert ok
        with pytest.raises(GraphError, match="string"):  # not split into characters
            CoBipartitePartition("ab", ("c",))

    def test_partition_validation_returns_index_lists(self):
        g = Graph.from_edges(["a", "b", "c"], [("a", "b")])
        assert CoBipartitePartition(("b", "a"), ("c",)).validate(g) == ([1, 0], [2])


def layout(g):
    """Vertex order and adjacency rows: ``Graph.__eq__`` ignores the order."""
    return g.vertices, g.adj


def literal_complement(spec):
    """The co-bipartite complement by its edge list: both cliques, then the
    cross pairs that are not bipartite edges."""
    edges = list(combinations(spec.part_x, 2)) + list(combinations(spec.part_y, 2))
    edges += [(x, y) for x in spec.part_x for y in spec.part_y
              if (x, y) not in spec.cross_edges]
    return Graph.from_edges(spec.part_x + spec.part_y, edges)


class TestBuildersAgainstEdgeLists:
    def test_crown_edges_by_index(self):
        for n in range(1, 11):
            for k in range(n):
                params = GeneralizedCrownParams(n, k)
                literal = {(unprimed(i), primed(j))
                           for i in range(1, n + 1) for j in range(1, n + 1)
                           if primed(j) not in crown_removed_neighbors(params, i)}
                assert generalized_crown(params).cross_edges == literal, (n, k)

    def test_complement_from_masks(self):
        rng = random.Random(29)
        specs = [path_bipartite(n) for n in range(1, 11)]
        specs += [cycle_bipartite(n) for n in range(2, 11)]
        for _ in range(40):
            labels = [f"v{i}" for i in range(rng.randint(0, 64))]
            rng.shuffle(labels)
            cut = rng.randint(0, len(labels))
            xs, ys = tuple(labels[:cut]), tuple(labels[cut:])
            p = rng.random()
            specs.append(BipartiteSpec(xs, ys, frozenset(
                (x, y) for x in xs for y in ys if rng.random() < p)))
        for spec in specs:
            g, part = cobipartite_from_bipartite(spec)
            assert layout(g) == layout(literal_complement(spec)), spec
            assert part == CoBipartitePartition(spec.part_x, spec.part_y)

    def test_induced_matches_the_literal_restriction(self):
        # Every kept subset of every labelled graph on at most 5 vertices,
        # then random ones up to the cap, against from_edges on the kept
        # labels (in the graph's order) and the edges among them.
        rng = random.Random(61)
        graphs = []
        for n in range(6):
            labels = [f"v{i}" for i in reversed(range(n))]
            pairs = list(combinations(labels, 2))
            graphs += [(Graph.from_edges(labels, [e for t, e in enumerate(pairs) if bits >> t & 1]),
                        range(1 << n)) for bits in range(1 << len(pairs))]
        for n in (9, 17, 33, 64):
            labels = [f"v{i}" for i in range(n)]
            rng.shuffle(labels)
            p = rng.random()
            g = Graph.from_edges(labels, [e for e in combinations(labels, 2) if rng.random() < p])
            graphs.append((g, [rng.getrandbits(n) for _ in range(20)] + [0, (1 << n) - 1]))
        for g, masks in graphs:
            edges = g.edges()
            for mask in masks:
                kept = [v for i, v in enumerate(g.vertices) if mask >> i & 1]
                literal = Graph.from_edges(
                    kept, [(u, v) for u, v in edges if u in kept and v in kept])
                assert layout(g.induced(reversed(kept))) == layout(literal), (g.adj, kept)
        with pytest.raises(GraphError, match=r"unknown vertices \['nope'\]"):
            g.induced([g.vertices[0], "nope"])

    def test_without_matches_induced(self):
        # Dropping any one vertex keeps the others in order with the edges
        # among them.
        rng = random.Random(61)
        for n in (1, 2, 3, 5, 9, 17, 33, 50, 64):
            labels = [f"v{i}" for i in range(n)]
            rng.shuffle(labels)
            p = rng.random()
            g = Graph.from_edges(labels, [e for e in combinations(labels, 2)
                                          if rng.random() < p])
            for v in labels:
                rest = [u for u in labels if u != v]
                literal = Graph.from_edges(rest, [e for e in g.edges() if v not in e])
                assert layout(g.induced(rest)) == layout(literal), (n, v)
        with pytest.raises(GraphError, match=r"unknown vertices \[.nope.\]"):
            g.induced(["nope"])

    def test_label_errors_are_unchanged(self):
        many = [f"v{i}" for i in range(66)]
        for bad in (["a b", "a b"] + many, ["#x"]):
            with pytest.raises(GraphError, match="bad vertex label"):
                Graph.from_edges(bad, [])
        with pytest.raises(GraphError, match="bad vertex label 'a b'"):
            cobipartite_from_bipartite(BipartiteSpec(("a b",), ("x",), frozenset()))
        with pytest.raises(GraphError, match="duplicate vertex labels"):
            Graph.from_edges(["a", "a"] + many, [])
        with pytest.raises(GraphError, match=r"too many vertices \(66 > 64\)"):
            Graph.from_edges(many, [])
        with pytest.raises(GraphError, match=r"too many vertices \(66 > 64\)"):
            cobipartite_from_bipartite(BipartiteSpec(tuple(many[:33]), tuple(many[33:]),
                                                     frozenset()))


class TestNamedWitnesses:
    def test_t1bar_shape(self):
        g, part = named_witness("T1bar")
        part.validate(g)
        assert len(g.vertices) == 7
        # complement of the 6-cycle plus isolated vertex: 21 - 6 edges
        assert g.edge_count == 15
        degrees = sorted(g.degree(v) for v in g.vertices)
        assert g.degree("7") == 6  # the isolated vertex becomes all-adjacent
        assert degrees == [4, 4, 4, 4, 4, 4, 6]

    def test_t2bar_shape(self):
        g, part = named_witness("T2bar")
        part.validate(g)
        assert len(g.vertices) == 7
        # complement of a 7-vertex tree: 21 - 6 edges
        assert g.edge_count == 15
        # the spider's center has no cross neighbors in the complement
        assert g.degree("4") == 3

    def test_g1bar_dominant_vertex(self):
        g, part = named_witness("G1bar", 3)
        part.validate(g)
        assert g.degree("v") == len(g.vertices) - 1
        assert "v" in part.clique_a

    def test_g1bar_rejects_small_n(self):
        with pytest.raises(GraphError):
            named_witness("G1bar", 2)

    def test_unknown_name(self):
        with pytest.raises(GraphError):
            named_witness("nope")


class TestGraphBasics:
    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(GraphError):
            Graph.from_edges(["a"], [("a", "a")])
        with pytest.raises(GraphError):
            Graph.from_edges(["a", "a"], [])

    def test_rejects_comment_label(self):
        # '#x' would be written out as a comment and parse back as nothing
        with pytest.raises(GraphError, match="bad vertex label"):
            Graph.from_edges(["#x", "b"], [("#x", "b")])

    def test_rejects_header_label(self):
        # 'vertices:x' would parse back as a second vertices line
        with pytest.raises(GraphError, match="bad vertex label"):
            Graph.from_edges(["vertices:x", "b"], [("vertices:x", "b")])

    @pytest.mark.parametrize("label", ["", " ", "a b", "a\tb", "a\n"])
    def test_rejects_empty_and_whitespace_labels(self, label):
        with pytest.raises(GraphError, match="bad vertex label"):
            Graph.from_edges([label, "b"], [])

    def test_rejects_oversized(self):
        labels = [f"v{i}" for i in range(65)]
        with pytest.raises(GraphError):
            Graph.from_edges(labels, [])

    def test_equality_ignores_vertex_order(self):
        g1 = Graph.from_edges(["a", "b", "c"], [("a", "b")])
        g2 = Graph.from_edges(["c", "b", "a"], [("b", "a")])
        assert g1 == g2
        assert hash(g1) == hash(g2)

    def test_induced_and_without(self):
        g = k_n(4)
        h = g.induced(v for v in g.vertices if v != "4")
        assert h.vertices == ("1", "2", "3")
        assert h.edge_count == 3
        sub = g.induced(["4", "2"])
        assert sub.vertices == ("2", "4")
        assert sub.edge_count == 1


class TestTextFormat:
    def test_roundtrip_with_partition(self):
        g, part = named_witness("T2bar")
        text = format_graph_text(g, part)
        g2, part2 = parse_graph_text(text)
        assert g == g2
        assert part2 == part

    def test_comments_and_blank_lines(self):
        text = "# a graph\nvertices: a b 1'\n\na b  # an edge\nb 1'\n"
        g, part = parse_graph_text(text)
        assert part is None
        assert g.edge_set() == {frozenset(("a", "b")), frozenset(("b", "1'"))}

    def test_missing_vertices_line(self):
        with pytest.raises(GraphError):
            parse_graph_text("a b\n")

    @pytest.mark.parametrize("edges", ["a b\na b\n", "a b\nb a\n"])
    def test_rejects_repeated_edge_line(self, edges):
        with pytest.raises(GraphError, match="repeated edge"):
            parse_graph_text("vertices: a b\n" + edges)

    @pytest.mark.parametrize("header", ["vertices: a b", "cliqueA: a", "cliqueB: b"])
    def test_rejects_repeated_header(self, header):
        text = "vertices: a b\ncliqueA: a\ncliqueB: b\na b\n" + header + "\n"
        with pytest.raises(GraphError, match="repeated"):
            parse_graph_text(text)

    def test_partition_requires_both_lines(self):
        with pytest.raises(GraphError):
            parse_graph_text("vertices: a b\ncliqueA: a\na b\n")
