"""Words over vertex alphabets and the alternation calculus.

A word represents a graph when two letters alternate in it exactly for the
adjacent vertex pairs.  This module holds the word-level operations needed
to state and check that condition: restriction to a letter subset, the
alternation test itself, uniformity, initial/final permutations, and the
two representation-preserving rewrites (prefixing the initial permutation,
and cyclic rotation of uniform words).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .graphs import Graph


class WordError(ValueError):
    """Bad word input: alphabet mismatch, absent letters, or misuse of an op."""


@dataclass(frozen=True)
class Word:
    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        for letter in self.letters:
            # such letters would not survive a round trip through the text format
            if letter.split() != [letter] or "#" in letter:
                raise WordError(f"bad letter {letter!r}: empty, whitespace or '#'")

    @classmethod
    def from_text(cls, text: str) -> "Word":
        return cls(tuple(text.split()))

    def __str__(self) -> str:
        return " ".join(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def alphabet(self) -> frozenset[str]:
        return frozenset(self.letters)

    def count(self, letter: str) -> int:
        return self.letters.count(letter)


def concat(*words: Word) -> Word:
    return Word(tuple(letter for w in words for letter in w.letters))


def restrict(w: Word, keep: Iterable[str]) -> Word:
    """Subsequence of w consisting of the kept letters, order preserved."""
    keep_set = set(keep)
    return Word(tuple(x for x in w.letters if x in keep_set))


def alternates(w: Word, x: str, y: str) -> bool:
    """True when the restriction of w to {x, y} reads xyxy... or yxyx..."""
    if x == y:
        raise WordError(f"alternation needs two distinct letters, got {x!r} twice")
    seen = w.alphabet()
    if x not in seen or y not in seen:
        missing = x if x not in seen else y
        raise WordError(f"letter {missing!r} does not occur in the word")
    prev = None
    for letter in w.letters:
        if letter == x or letter == y:
            if letter == prev:
                return False
            prev = letter
    return True


def is_uniform(w: Word) -> int | None:
    """The common multiplicity k when every letter occurs exactly k times."""
    if not w.letters:
        return None
    counts = {x: w.letters.count(x) for x in w.alphabet()}
    values = set(counts.values())
    return values.pop() if len(values) == 1 else None


def initial_permutation(w: Word) -> Word:
    """Leftmost occurrence of each letter, in order of first appearance."""
    seen: dict[str, None] = {}
    for x in w.letters:
        seen.setdefault(x)
    return Word(tuple(seen))


def final_permutation(w: Word) -> Word:
    """Rightmost occurrence of each letter, in order of last appearance."""
    seen: dict[str, None] = {}
    for x in reversed(w.letters):
        seen.setdefault(x)
    return Word(tuple(reversed(seen.keys())))


def prepend_initial(w: Word) -> Word:
    """The initial permutation glued in front; represents the same graph."""
    return concat(initial_permutation(w), w)


def rotate_uniform(w: Word, cut: int) -> Word:
    """Cyclic rotation u v -> v u, legal for uniform words only."""
    if is_uniform(w) is None:
        raise WordError("rotation preserves representation only for uniform words")
    if not 0 <= cut <= len(w.letters):
        raise WordError(f"cut index {cut} out of range")
    return Word(w.letters[cut:] + w.letters[:cut])


def alternation_neighborhood(w: Word, x: str) -> set[str]:
    """All letters alternating with x in w."""
    if x not in w.alphabet():
        raise WordError(f"letter {x!r} does not occur in the word")
    return {y for y in w.alphabet() if y != x and alternates(w, x, y)}


def once_only_between(w: Word, x: str) -> list[set[str]]:
    """For each consecutive pair of x's, the letters occurring exactly once between.

    Letters in any one of these gap sets are the only candidates for being
    adjacent to x in a graph represented by w.  The per-gap sets are exposed
    as-is; they are diagnostics and need not coincide with each other or
    with the alternation neighborhood.
    """
    if x not in w.alphabet():
        raise WordError(f"letter {x!r} does not occur in the word")
    positions = [i for i, letter in enumerate(w.letters) if letter == x]
    gaps = []
    for left, right in zip(positions, positions[1:]):
        segment = w.letters[left + 1 : right]
        gaps.append({y for y in set(segment) if segment.count(y) == 1})
    return gaps


@dataclass(frozen=True)
class Violation:
    x: str
    y: str
    restriction: str
    expected: str  # "alternate" or "non-alternate"

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "restriction": self.restriction,
                "expected": self.expected}


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self.violations]}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def represents(w: Word, g: Graph) -> VerifyReport:
    """Check alternation-iff-adjacency for every vertex pair of g.

    The check is total: all offending pairs are reported, in vertex order,
    each with its restricted subword.  A word must mention every vertex at
    least once and nothing else; anything different is an alphabet error.
    """
    if not w.letters:
        raise WordError("empty word cannot represent a graph")
    alphabet = w.alphabet()
    vertex_set = set(g.vertices)
    if alphabet - vertex_set:
        raise WordError(f"letters {sorted(alphabet - vertex_set)} are not vertices")
    if vertex_set - alphabet:
        raise WordError(f"vertices {sorted(vertex_set - alphabet)} missing from the word")
    violations = []
    for i, x in enumerate(g.vertices):
        for y in g.vertices[i + 1 :]:
            alt = alternates(w, x, y)
            adjacent = g.has_edge(x, y)
            if alt != adjacent:
                violations.append(
                    Violation(
                        x, y,
                        restriction=str(restrict(w, {x, y})),
                        expected="alternate" if adjacent else "non-alternate",
                    )
                )
    return VerifyReport(ok=not violations, violations=tuple(violations))


def alternation_relation(w: Word) -> frozenset[frozenset[str]]:
    """The graph a word defines on its own alphabet: all alternating pairs."""
    letters = sorted(w.alphabet())
    pairs = set()
    for i, x in enumerate(letters):
        for y in letters[i + 1 :]:
            if alternates(w, x, y):
                pairs.add(frozenset((x, y)))
    return frozenset(pairs)


# --- text format: whitespace-separated letters on one line ---------------


def parse_word_text(text: str) -> Word:
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines())
             if line]
    if not lines:
        raise WordError("no word found in input")
    if len(lines) > 1:
        raise WordError(f"a word file holds one word line, found {len(lines)}")
    return Word.from_text(lines[0])


def format_word_text(w: Word) -> str:
    return str(w) + "\n"
