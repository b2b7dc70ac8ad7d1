"""Property tests: text-format round trips and the word calculus on generated input."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from wordrep.graphs import Graph, format_graph_text, parse_graph_text
from wordrep.words import (
    Word,
    alternates,
    alternation_relation,
    format_word_text,
    parse_word_text,
    prepend_initial,
    represents,
    rotate_uniform,
)

# Deterministic and untimed, so a slow machine cannot fail a run.
common = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Any label the constructors accept: no whitespace, '#' or ':'.
labels = st.text(min_size=1, max_size=3).filter(
    lambda s: s.split() == [s] and "#" not in s and ":" not in s)


@st.composite
def graphs(draw, max_vertices=6):
    verts = draw(st.lists(labels, min_size=1, max_size=max_vertices, unique=True))
    pairs = list(combinations(verts, 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(verts, [e for e, keep in zip(pairs, chosen) if keep])


@st.composite
def words(draw, max_letters=5, max_extra=8):
    """A word using every letter of a drawn alphabet at least once."""
    alphabet = draw(st.lists(labels, min_size=1, max_size=max_letters, unique=True))
    extra = draw(st.lists(st.sampled_from(alphabet), max_size=max_extra))
    return Word(tuple(draw(st.permutations(alphabet + extra))))


@common
@given(graphs())
def test_graph_text_round_trip(g):
    back, partition = parse_graph_text(format_graph_text(g))
    assert partition is None
    assert back.vertices == g.vertices and back.adj == g.adj


@common
@given(words())
def test_word_text_round_trip(w):
    assert parse_word_text(format_word_text(w)) == w


@common
@given(words())
def test_alternation_relation_matches_alternates_on_every_pair(w):
    literal = {frozenset(pair) for pair in combinations(sorted(w.alphabet()), 2)
               if alternates(w, *pair)}
    assert alternation_relation(w) == literal


@common
@given(words(), st.data())
def test_represents_agrees_with_alternation_relation(w, data):
    relation = alternation_relation(w)
    alphabet = sorted(w.alphabet())
    own = Graph.from_edges(alphabet, [tuple(pair) for pair in relation])
    assert represents(w, own).ok
    pairs = list(combinations(alphabet, 2))
    chosen = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, chosen) if keep]
    other = Graph.from_edges(alphabet, edges)
    assert represents(w, other).ok == ({frozenset(e) for e in edges} == relation)


@common
@given(words())
def test_prepending_the_initial_permutation_keeps_the_relation(w):
    assert alternation_relation(prepend_initial(w)) == alternation_relation(w)


@common
@given(st.lists(labels, min_size=1, max_size=4, unique=True), st.integers(1, 3),
       st.data())
def test_rotating_a_uniform_word_keeps_the_relation(alphabet, k, data):
    w = Word(tuple(data.draw(st.permutations(alphabet * k))))
    cut = data.draw(st.integers(0, len(w)))
    assert alternation_relation(rotate_uniform(w, cut)) == alternation_relation(w)
