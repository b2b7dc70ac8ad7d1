"""Word operations: restriction, alternation, verification, rewrites."""

import random
from itertools import combinations, product

import pytest

from wordrep.graphs import Graph
from wordrep.words import (
    Violation,
    VerifyReport,
    Word,
    WordError,
    alternates,
    alternation_neighborhood,
    alternation_relation,
    concat,
    final_permutation,
    format_word_text,
    initial_permutation,
    is_uniform,
    once_only_between,
    parse_word_text,
    prepend_initial,
    represents,
    restrict,
    rotate_uniform,
)
from wordrep.constructions import complement_path_graph, word_complement_path

W_EXAMPLE = Word(tuple("6345123215"))


def random_word(rng, max_letters=6, max_occurrences=4):
    letters = [str(i) for i in range(1, rng.randint(2, max_letters) + 1)]
    bag = []
    for letter in letters:
        bag += [letter] * rng.randint(1, max_occurrences)
    rng.shuffle(bag)
    return Word(tuple(bag))


class TestRestrict:
    def test_worked_example(self):
        assert str(restrict(W_EXAMPLE, {"6", "5"})) == "6 5 5"

    def test_keep_all_is_identity(self):
        assert restrict(W_EXAMPLE, set("123456")) == W_EXAMPLE

    def test_keep_none_is_empty(self):
        assert len(restrict(W_EXAMPLE, set())) == 0

    def test_composition_is_intersection(self):
        rng = random.Random(11)
        for _ in range(100):
            w = random_word(rng)
            pool = list(w.alphabet())
            a = {x for x in pool if rng.random() < 0.6}
            b = {x for x in pool if rng.random() < 0.6}
            assert restrict(restrict(w, a), b) == restrict(w, a & b)


class TestAlternates:
    def test_simple_alternation(self):
        assert alternates(Word(tuple("1212")), "1", "2")

    def test_primed_pair_from_path_word(self):
        # restriction 1 1' 1' 1 does not alternate
        w = word_complement_path(2)
        assert str(restrict(w, {"1", "1'"})) == "1 1' 1' 1"
        assert not alternates(w, "1", "1'")

    def test_worked_example_non_alternation(self):
        assert not alternates(W_EXAMPLE, "6", "5")

    def test_symmetry(self):
        rng = random.Random(23)
        for _ in range(100):
            w = random_word(rng)
            x, y = rng.sample(sorted(w.alphabet()), 2)
            assert alternates(w, x, y) == alternates(w, y, x)

    def test_rejects_equal_letters_and_absent(self):
        with pytest.raises(WordError):
            alternates(W_EXAMPLE, "1", "1")
        with pytest.raises(WordError):
            alternates(W_EXAMPLE, "1", "9")


class TestRepresents:
    def test_permutation_represents_complete_graph(self):
        for n in (1, 2, 5):
            labels = [str(i) for i in range(1, n + 1)]
            g = Graph.from_edges(labels, combinations(labels, 2))
            assert represents(Word(tuple(labels)), g).ok

    def test_co_p4_word(self):
        g, _ = complement_path_graph(2)
        assert represents(Word.from_text("1 2 1' 2' 1' 1 2' 2"), g).ok

    def test_failure_lists_offending_pair(self):
        g = Graph.from_edges(["1", "2"], [("1", "2")])
        report = represents(Word(tuple("1122")), g)
        assert not report.ok
        assert len(report.violations) == 1
        v = report.violations[0]
        assert (v.x, v.y) == ("1", "2")
        assert v.restriction == "1 1 2 2"
        assert v.expected == "alternate"
        assert report.to_json()["violations"][0]["x"] == "1"

    def test_reports_every_violation_in_vertex_order(self):
        g = Graph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        report = represents(Word.from_text("a a b b c c"), g)
        assert [(v.x, v.y) for v in report.violations] == [
            ("a", "b"), ("a", "c"), ("b", "c")]

    def test_alphabet_mismatch(self):
        g = Graph.from_edges(["1", "2"], [("1", "2")])
        with pytest.raises(WordError):
            represents(Word(tuple("123")), g)
        with pytest.raises(WordError):
            represents(Word(tuple("11")), g)
        with pytest.raises(WordError):
            represents(Word(()), g)


class TestAgainstLiteralAlternation:
    """The one-pass relation against the pairwise definition ``alternates``."""

    def test_relation_and_neighborhoods_on_all_short_words(self):
        checked = 0
        for m in (1, 2, 3):
            alphabet = "bca"[:m]  # not in sorted order
            for length in range(m, 8):
                for letters in product(alphabet, repeat=length):
                    if len(set(letters)) < m:
                        continue
                    w = Word(letters)
                    literal = {frozenset((x, y)) for x, y in combinations(alphabet, 2)
                               if alternates(w, x, y)}
                    assert alternation_relation(w) == literal, w
                    for x in alphabet:
                        expected = {y for y in alphabet if y != x and alternates(w, x, y)}
                        assert alternation_neighborhood(w, x) == expected, (w, x)
                    checked += 1
        assert checked == 2785

    def test_represents_matches_a_literal_report(self):
        rng = random.Random(71)
        failing = 0
        for _ in range(400):
            w = random_word(rng)
            vertices = sorted(w.alphabet())
            rng.shuffle(vertices)
            if rng.random() < 0.5:
                edges = [e for e in combinations(vertices, 2) if rng.random() < 0.5]
            else:
                edges = [tuple(pair) for pair in sorted(map(sorted, alternation_relation(w)))]
                if edges and rng.random() < 0.5:
                    edges.pop(rng.randrange(len(edges)))
            g = Graph.from_edges(vertices, edges)
            violations = tuple(
                Violation(x, y, restriction=str(restrict(w, {x, y})),
                          expected="alternate" if g.has_edge(x, y) else "non-alternate")
                for x, y in combinations(g.vertices, 2)
                if alternates(w, x, y) != g.has_edge(x, y)
            )
            report = represents(w, g)
            assert report == VerifyReport(ok=not violations, violations=violations)
            failing += not report.ok
        assert 100 < failing < 400


class TestUniform:
    def test_examples(self):
        assert is_uniform(Word(tuple("123123"))) == 2
        assert is_uniform(Word(tuple("1121"))) is None
        assert is_uniform(Word(tuple("1"))) == 1


class TestPermutations:
    def test_initial(self):
        assert str(initial_permutation(W_EXAMPLE)) == "6 3 4 5 1 2"

    def test_final(self):
        assert str(final_permutation(W_EXAMPLE)) == "6 4 3 2 1 5"

    def test_on_a_permutation_both_are_identity(self):
        w = Word(tuple("35142"))
        assert initial_permutation(w) == w
        assert final_permutation(w) == w


class TestRewrites:
    def test_prepend_initial_trivial(self):
        assert str(prepend_initial(Word(tuple("11")))) == "1 1 1"

    def test_prepend_initial_on_co_p4_word(self):
        w = Word.from_text("1 2 1' 2' 1' 1 2' 2")
        g, _ = complement_path_graph(2)
        assert prepend_initial(w) == concat(Word.from_text("1 2 1' 2'"), w)
        assert represents(prepend_initial(w), g).ok

    def test_prepend_initial_preserves_relation(self):
        rng = random.Random(5)
        for _ in range(200):
            w = random_word(rng)
            assert alternation_relation(prepend_initial(w)) == alternation_relation(w)

    def test_rotation_preserves_relation(self):
        rng = random.Random(17)
        done = 0
        while done < 100:
            w = random_word(rng, max_letters=5, max_occurrences=3)
            k = rng.randint(1, 3)
            # force uniformity by trimming to k occurrences each
            counts = {x: 0 for x in w.alphabet()}
            letters = []
            for x in w.letters:
                if counts[x] < k:
                    counts[x] += 1
                    letters.append(x)
            if any(c != k for c in counts.values()):
                continue
            w = Word(tuple(letters))
            rel = alternation_relation(w)
            for cut in range(len(w.letters) + 1):
                assert alternation_relation(rotate_uniform(w, cut)) == rel
            done += 1

    def test_rotation_identity_and_k3(self):
        w = Word(tuple("123123"))
        assert rotate_uniform(w, 0) == w
        g = Graph.from_edges(["1", "2", "3"], combinations("123", 2))
        assert represents(rotate_uniform(w, 1), g).ok

    def test_rotation_rejects_nonuniform(self):
        with pytest.raises(WordError):
            rotate_uniform(Word(tuple("112")), 1)


class TestNeighborhoods:
    def test_simple(self):
        assert alternation_neighborhood(Word(tuple("123123")), "1") == {"2", "3"}
        assert alternation_neighborhood(Word(tuple("1221")), "1") == set()

    def test_matches_graph_neighbors_on_co_p6(self):
        w = word_complement_path(3)
        g, _ = complement_path_graph(3)
        assert alternation_neighborhood(w, "2") == set(g.neighbors("2"))

    def test_once_only_between(self):
        w = Word.from_text("1 2 3 3 1 2 1")
        assert once_only_between(w, "1") == [{"2"}, {"2"}]

    def test_once_only_requires_occurrence(self):
        with pytest.raises(WordError):
            once_only_between(Word(tuple("22")), "1")


class TestTextFormat:
    def test_roundtrip(self):
        w = Word.from_text("1 2' 1 x")
        assert parse_word_text(format_word_text(w)) == w

    def test_rejects_empty(self):
        with pytest.raises(WordError):
            parse_word_text("# nothing here\n")

    def test_rejects_a_second_word_line(self):
        with pytest.raises(WordError, match="one word line"):
            parse_word_text("a b a c\nb b b\n")

    def test_comments_and_blank_lines_around_the_word(self):
        text = "# header\n\na b a  # trailing\n   \n# footer\n"
        assert parse_word_text(text) == Word(("a", "b", "a"))

    @pytest.mark.parametrize("letter", ["", " ", "a b", "a\tb", "a#", "#"])
    def test_word_rejects_letters_that_cannot_round_trip(self, letter):
        with pytest.raises(WordError, match="bad letter"):
            Word(("b", letter))
