"""Family words: frozen small cases plus oracle verification."""

import random
import re
from itertools import combinations, product

import pytest

from wordrep.graphs import (
    CoBipartitePartition,
    GeneralizedCrownParams,
    Graph,
    GraphError,
    cobipartite_from_bipartite,
    generalized_crown,
)
from wordrep.words import Word, is_uniform, prepend_initial, represents, restrict
from wordrep.orientations import find_semi_transitive_orientation
from wordrep.constructions import (
    NeighborhoodProfile,
    NeighborhoodProfile2,
    NeighborhoodProfile3,
    cobip_graph,
    complement_crown_graph,
    complement_cycle_graph,
    complement_path_graph,
    parse_class_token,
    parse_profile,
    word_cobip,
    word_complement_even_cycle,
    word_complement_path,
    word_generalized_crown,
)

CLASSES2 = [frozenset(), frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"})]
CLASSES3 = [
    frozenset({"1"}), frozenset({"2"}), frozenset({"3"}),
    frozenset({"1", "2"}), frozenset({"1", "3"}), frozenset({"2", "3"}),
]
MEMBERS = ["a", "b", "c", "d"]


def two_permutation_split(word, vertex_set):
    """Independent check that a word is exactly two permutations of the set."""
    letters = word.letters
    half = len(letters) // 2
    if len(letters) != 2 * len(vertex_set):
        return False
    return (set(letters[:half]) == vertex_set == set(letters[half:])
            and len(set(letters[:half])) == half == len(set(letters[half:])))


class TestComplementPath:
    def test_frozen_small_cases(self):
        assert str(word_complement_path(1)) == "1 1' 1' 1"
        assert str(word_complement_path(2)) == "1 2 1' 2' 1' 1 2' 2"
        assert str(word_complement_path(3)) == "1 2 1' 3 2' 3' 1' 1 2' 2 3' 3"

    def test_n1_even_vertices_nonadjacent(self):
        w = word_complement_path(1)
        assert not_alternating(w, "1", "1'")

    def test_odd_drops_last_primed(self):
        even = word_complement_path(3)
        odd = word_complement_path(3, even=False)
        assert odd.letters == tuple(x for x in even.letters if x != "3'")

    def test_verifies_for_all_small_n(self):
        for n in range(1, 6):
            for even in (True, False):
                w = word_complement_path(n, even)
                g, part = complement_path_graph(n, even)
                part.validate(g)
                assert represents(w, g).ok, (n, even)

    def test_two_permutation_factorization(self):
        for n in range(1, 9):
            for even in (True, False):
                w = word_complement_path(n, even)
                g, _ = complement_path_graph(n, even)
                assert two_permutation_split(w, set(g.vertices)), (n, even)


def not_alternating(w, x, y):
    r = restrict(w, {x, y}).letters
    return any(a == b for a, b in zip(r, r[1:]))


class TestComplementCycle:
    def test_frozen_n2(self):
        assert str(word_complement_even_cycle(2)) == "1 2 1' 1 2' 2 1' 2' 1' 1 2' 2"

    def test_n2_represents_two_disjoint_edges(self):
        g, _ = complement_cycle_graph(2)
        assert g.edge_set() == {frozenset(("1", "2")), frozenset(("1'", "2'"))}
        assert represents(word_complement_even_cycle(2), g).ok

    def test_verifies_small_n(self):
        for n in range(2, 6):
            g, _ = complement_cycle_graph(n)
            assert represents(word_complement_even_cycle(n), g).ok, n

    def test_swap_preserves_multiplicities(self):
        for n in (2, 3, 5):
            w = word_complement_even_cycle(n)
            base = word_complement_path(n)
            w1 = prepend_initial(base)
            for letter in set(w1.letters):
                assert w.letters.count(letter) == w1.letters.count(letter), (n, letter)

    def test_rejects_n1(self):
        with pytest.raises(GraphError):
            word_complement_even_cycle(1)


class TestGeneralizedCrownWord:
    def test_frozen_3_0(self):
        assert str(word_generalized_crown(GeneralizedCrownParams(3, 0))) == \
            "1 2 3 1' 1 2' 2 3' 3 1' 2' 3' 1 1' 2 2' 3 3'"

    def test_three_uniform_everywhere(self):
        for n in range(1, 7):
            for k in range(0, n):
                w = word_generalized_crown(GeneralizedCrownParams(n, k))
                assert is_uniform(w) == 3, (n, k)

    def test_verifies_against_prism_at_3_0(self):
        params = GeneralizedCrownParams(3, 0)
        g, _ = complement_crown_graph(params)
        # the complement of the 3-crown is the triangular prism
        assert g.edge_count == 9
        assert all(g.degree(v) == 3 for v in g.vertices)
        assert represents(word_generalized_crown(params), g).ok

    def test_verifies_full_matching_case(self):
        for n in (2, 3, 4):
            params = GeneralizedCrownParams(n, n - 1)
            g, _ = complement_crown_graph(params)
            assert represents(word_generalized_crown(params), g).ok

    def test_graph_equals_the_complemented_crown(self):
        # The bitset builder gives the labelled route's vertex order,
        # bitsets and partition exactly.
        for n in range(1, 9):
            for k in range(n):
                params = GeneralizedCrownParams(n, k)
                g, part = complement_crown_graph(params)
                h, route_part = cobipartite_from_bipartite(generalized_crown(params))
                assert (g.vertices, g.adj, part) == (h.vertices, h.adj, route_part), (n, k)


class TestFixedCliqueWords:
    def test_single_member_adjacent_to_both(self):
        prof = NeighborhoodProfile2({"a": frozenset({"1", "2"})})
        assert str(word_cobip(prof)) == "a 1 2 a 1 2"

    def test_two_members_example(self):
        prof = NeighborhoodProfile2({"u": frozenset({"1"}), "v": frozenset()})
        w = word_cobip(prof)
        assert str(w) == "1 2 v u v 1 u 2"
        g, _ = cobip_graph(prof)
        assert g.edge_set() == {
            frozenset(("1", "2")), frozenset(("u", "v")), frozenset(("1", "u")),
        }
        assert represents(w, g).ok

    def test_empty_profile(self):
        assert str(word_cobip(NeighborhoodProfile2({}))) == "1 2 1 2"
        w3 = word_cobip(NeighborhoodProfile3({}))
        assert str(restrict(w3, {"1", "2", "3"})) == "1 2 3 1 2 3 1 2 3"

    def test_k2_exhaustive_m2(self):
        for assign in product(CLASSES2, repeat=2):
            prof = NeighborhoodProfile2(dict(zip(MEMBERS, assign)))
            g, _ = cobip_graph(prof)
            assert represents(word_cobip(prof), g).ok, assign

    def test_k3_single_member_alternations(self):
        prof = NeighborhoodProfile3({"a": frozenset({"1", "3"})})
        w = word_cobip(prof)
        g, _ = cobip_graph(prof)
        assert represents(w, g).ok
        from wordrep.words import alternates
        assert alternates(w, "a", "1") and alternates(w, "a", "3")
        assert not alternates(w, "a", "2")

    def test_k3_exhaustive_m2(self):
        for assign in product(CLASSES3, repeat=2):
            prof = NeighborhoodProfile3(dict(zip(MEMBERS, assign)))
            g, _ = cobip_graph(prof)
            assert represents(word_cobip(prof), g).ok, assign

    def test_k3_uses_every_member_three_times(self):
        prof = NeighborhoodProfile3(dict(zip(MEMBERS, CLASSES3[:4])))
        w = word_cobip(prof)
        assert is_uniform(w) == 3

    def test_k2_uses_every_member_twice(self):
        prof = NeighborhoodProfile2(dict(zip(MEMBERS, CLASSES2)))
        w = word_cobip(prof)
        assert is_uniform(w) == 2

    def test_forbidden_k3_classes(self):
        with pytest.raises(GraphError):
            NeighborhoodProfile3({"a": frozenset({"1", "2", "3"})})
        with pytest.raises(GraphError):
            NeighborhoodProfile3({"a": frozenset()})

    def test_member_label_collision(self):
        with pytest.raises(GraphError):
            NeighborhoodProfile2({"1": frozenset()})


class TestProfileParsing:
    def test_tokens(self):
        assert parse_class_token("N12", 2) == frozenset({"1", "2"})
        assert parse_class_token("13", 3) == frozenset({"1", "3"})
        assert parse_class_token("none", 2) == frozenset()
        assert parse_class_token("N0", 2) == frozenset()
        with pytest.raises(GraphError):
            parse_class_token("N13", 2)

    def test_profile_string(self):
        prof = parse_profile("a:N12,b:1,c:none", 2)
        assert prof.adjacency == {
            "a": frozenset({"1", "2"}), "b": frozenset({"1"}), "c": frozenset(),
        }
        with pytest.raises(GraphError):
            parse_profile("a:N12,a:N1", 2)
        with pytest.raises(GraphError):
            parse_profile("a", 2)
        for size in (1, 4):
            with pytest.raises(GraphError, match="must be 2 or 3"):
                parse_profile("a:N1", size)

    @pytest.mark.parametrize("text, member", [
        (":N1", "''"), (" :N1", "''"), ("a b:N1", "'a b'"), ("a\tb:N1", "'a\\tb'"),
        ("x#1:N2", "'x#1'"), ("b:N1,a b:N12", "'a b'"),
    ])
    def test_profile_rejects_a_label_no_graph_holds(self, text, member):
        # every member becomes a vertex and a letter, so a label the graph
        # format cannot hold is rejected when the profile is parsed
        for size in (2, 3):
            with pytest.raises(GraphError, match=f"bad member label {re.escape(member)}"):
                parse_profile(text, size)


class AnyClass3(NeighborhoodProfile):
    """Fixed clique {1, 2, 3} with every class allowed, ∅ and 123 included."""

    FIXED = ("1", "2", "3")


def layout(g):
    """Vertex order and adjacency rows: ``Graph.__eq__`` ignores the order."""
    return g.vertices, g.adj


def literal_family_graph(n, cross, drop=()):
    """Both cliques of the parts 1..n and 1'..n' plus every cross pair that
    is not a bipartite edge, as an edge list; ``drop`` leaves vertices out."""
    xs = [str(i) for i in range(1, n + 1)]
    ys = [f"{i}'" for i in range(1, n + 1)]
    edges = list(combinations(xs, 2)) + list(combinations(ys, 2))
    edges += [(x, y) for x in xs for y in ys if (x, y) not in cross]
    keep = [v for v in xs + ys if v not in drop]
    return Graph.from_edges(keep, [e for e in edges if not set(e) & set(drop)])


def literal_cobip_graph(profile):
    """Both cliques plus each member's edges to its class, as an edge list."""
    fixed, members = profile.FIXED, tuple(sorted(profile.adjacency))
    edges = list(combinations(fixed, 2)) + list(combinations(members, 2))
    edges += [(m, t) for m in members for t in sorted(profile.adjacency[m])]
    return Graph.from_edges(fixed + members, edges)


class TestGraphsAgainstEdgeLists:
    def test_path_cycle_and_crown(self):
        for n in range(1, 11):
            path = {("1", "1'")} | {(str(i), f"{j}'") for i in range(2, n + 1)
                                    for j in (i - 1, i)}
            g, part = complement_path_graph(n)
            assert layout(g) == layout(literal_family_graph(n, path)), n
            g, odd = complement_path_graph(n, even=False)
            assert layout(g) == layout(literal_family_graph(n, path, drop={f"{n}'"})), n
            assert odd.clique_b == part.clique_b[:-1]
            if n >= 2:
                g, _ = complement_cycle_graph(n)
                cycle = path | {("1", f"{n}'")}
                assert layout(g) == layout(literal_family_graph(n, cycle)), n
            for k in range(n):
                # i misses i', (i+1)', ..., (i+k)', wrapping
                crown = {(str(i), f"{j}'") for i in range(1, n + 1) for j in range(1, n + 1)
                         if j not in {(i - 1 + t) % n + 1 for t in range(k + 1)}}
                g, _ = complement_crown_graph(GeneralizedCrownParams(n, k))
                assert layout(g) == layout(literal_family_graph(n, crown)), (n, k)

    def test_fixed_clique_profiles(self):
        profiles = [NeighborhoodProfile2({f"m{''.join(sorted(c)) or '0'}{t}": c
                                          for c in chosen for t in "ab"})
                    for r in range(5) for chosen in combinations(CLASSES2, r)]
        assert len(profiles) == 16
        rng = random.Random(83)
        for _ in range(30):
            members = [f"v{i}" for i in range(rng.randint(0, 61))]
            rng.shuffle(members)
            profiles.append(NeighborhoodProfile3({m: rng.choice(CLASSES3) for m in members}))
        profiles.append(AnyClass3({"a": frozenset(), "b": frozenset({"1", "2", "3"})}))
        for profile in profiles:
            g, part = cobip_graph(profile)
            assert layout(g) == layout(literal_cobip_graph(profile)), profile
            assert part == CoBipartitePartition(profile.FIXED, tuple(sorted(profile.adjacency)))

    def test_fixed_clique_label_errors(self):
        with pytest.raises(GraphError, match="bad vertex label 'a b'"):
            cobip_graph(NeighborhoodProfile2({"a b": frozenset()}))
        with pytest.raises(GraphError, match=r"too many vertices \(66 > 64\)"):
            cobip_graph(NeighborhoodProfile3({f"v{i}": frozenset({"1"}) for i in range(63)}))


class TestClassSets:
    @pytest.mark.parametrize("profile_type, representable", [
        (NeighborhoodProfile2, 16), (AnyClass3, 213),
    ])
    def test_duplicating_a_twin_keeps_the_verdict(self, profile_type, representable):
        # Members of one class are true twins, so only the set of classes
        # should decide representability: doubling a class never changes it.
        def verdict(adjacency):
            g, _ = cobip_graph(profile_type(adjacency))
            return find_semi_transitive_orientation(g, max_vertices=12) is not None

        fixed = profile_type.FIXED
        classes = [frozenset(c) for r in range(len(fixed) + 1) for c in combinations(fixed, r)]
        positives = 0
        for chosen in product((False, True), repeat=len(classes)):
            adjacency = {f"m{''.join(sorted(c)) or '0'}": c
                         for c, keep in zip(classes, chosen) if keep}
            base = verdict(adjacency)
            positives += base
            for member, klass in adjacency.items():
                assert verdict({**adjacency, member + "'": klass}) == base, (adjacency, member)
        assert positives == representable
