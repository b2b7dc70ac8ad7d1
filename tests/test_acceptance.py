"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every test enforces its runtime budget as well as the
functional claim.
"""

import json
import random
import time
from collections import Counter
from itertools import combinations, product
from pathlib import Path

from wordrep.graphs import (
    CoBipartitePartition,
    GeneralizedCrownParams,
    Graph,
    named_witness,
)
from wordrep.words import (
    Word,
    alternation_relation,
    is_uniform,
    prepend_initial,
    represents,
    rotate_uniform,
)
from wordrep.constructions import (
    NeighborhoodProfile2,
    NeighborhoodProfile3,
    cobip_k2_graph,
    cobip_k3_graph,
    complement_crown_graph,
    complement_cycle_graph,
    complement_path_graph,
    word_cobip_k2,
    word_cobip_k3,
    word_complement_even_cycle,
    word_complement_path,
    word_generalized_crown,
)
from wordrep.orientations import (
    Orientation,
    ShortcutSearcher,
    acyclic_outsets,
    bounded_representation_number,
    find_noncomparability_witness,
    find_semi_transitive_orientation,
    find_uniform_word,
    is_comparability,
    is_word_representable,
    representable_via_dominant,
)
from wordrep.cobipartite import is_semi_transitive_cobip

ARTIFACT_DIR = Path(__file__).parent / "artifacts"

CLASSES2 = [frozenset(), frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"})]
CLASSES3 = [
    frozenset({"1"}), frozenset({"2"}), frozenset({"3"}),
    frozenset({"1", "2"}), frozenset({"1", "3"}), frozenset({"2", "3"}),
]
MEMBER_LABELS = list("abcdefgh")


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.name}: {verdict} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_construction_master_check():
    with Budget("1 construction master check", 5):
        for n in range(1, 9):
            for even in (True, False):
                w = word_complement_path(n, even)
                g, _ = complement_path_graph(n, even)
                assert represents(w, g).ok, (n, even)
        for n in range(2, 9):
            w = word_complement_even_cycle(n)
            g, _ = complement_cycle_graph(n)
            assert represents(w, g).ok, n
        for n in range(2, 8):
            for k in range(0, n):
                params = GeneralizedCrownParams(n, k)
                w = word_generalized_crown(params)
                assert is_uniform(w) == 3, (n, k)
                g, _ = complement_crown_graph(params)
                assert represents(w, g).ok, (n, k)


def test_criterion_2_clique2_exhaustive_and_random():
    with Budget("2 clique-2 words", 10):
        for m in range(0, 5):
            for assign in product(CLASSES2, repeat=m):
                prof = NeighborhoodProfile2(dict(zip(MEMBER_LABELS, assign)))
                g, _ = cobip_k2_graph(prof)
                assert represents(word_cobip_k2(prof), g).ok, assign
        rng = random.Random(2024)
        for _ in range(500):
            m = rng.randint(1, 8)
            assign = [rng.choice(CLASSES2) for _ in range(m)]
            prof = NeighborhoodProfile2(dict(zip(MEMBER_LABELS, assign)))
            g, _ = cobip_k2_graph(prof)
            assert represents(word_cobip_k2(prof), g).ok, assign


def test_criterion_3_clique3_exhaustive():
    with Budget("3 clique-3 words", 30):
        checked = 0
        for m in range(0, 5):
            for assign in product(CLASSES3, repeat=m):
                prof = NeighborhoodProfile3(dict(zip(MEMBER_LABELS, assign)))
                g, _ = cobip_k3_graph(prof)
                assert represents(word_cobip_k3(prof), g).ok, assign
                checked += 1
        assert checked == 1 + 6 + 36 + 216 + 1296


def test_criterion_4_nonrepresentability_witnesses():
    for name, n in (("T1bar", None), ("T2bar", None), ("G1bar", 3)):
        label = name if n is None else f"{name}({n})"
        with Budget(f"4 witness {label}", 5):
            g, partition = named_witness(name, n)
            partition.validate(g)
            assert len(g.vertices) == 7
            assert find_semi_transitive_orientation(g) is None, label


def test_criterion_5_dominant_and_comparability_route():
    with Budget("5 dominant-vertex route", 5):
        g1, _ = named_witness("G1bar", 3)
        assert representable_via_dominant(g1, "v") is False
        prism, _ = complement_crown_graph(GeneralizedCrownParams(3, 0))
        assert is_comparability(prism) is None
        walk = find_noncomparability_witness(prism, 9)
        assert walk is not None
        k = len(walk)
        assert k % 2 == 1 and 5 <= k <= 9
        pairs = set()
        for i in range(k):
            a, b = walk[i], walk[(i + 1) % k]
            assert prism.has_edge(a, b)
            assert (a, b) not in pairs
            pairs.add((a, b))
        for i in range(k):
            a, c = walk[i], walk[(i + 2) % k]
            assert a == c or not prism.has_edge(a, c)


def test_criterion_6_prism_representation_number():
    with Budget("6 prism representation number", 600):
        prism, _ = complement_crown_graph(GeneralizedCrownParams(3, 0))
        assert find_uniform_word(prism, 2) is None  # pruned backtracking, 12 letters
        assert bounded_representation_number(prism, 3) == 3
        crown_word = word_generalized_crown(GeneralizedCrownParams(3, 0))
        assert is_uniform(crown_word) == 3
        assert represents(crown_word, prism).ok


def test_criterion_7_comparability_of_path_complements():
    with Budget("7 path complements are comparability", 5):
        for n in range(1, 9):
            for even in (True, False):
                w = word_complement_path(n, even)
                g, _ = complement_path_graph(n, even)
                letters = w.letters
                half = len(letters) // 2
                assert len(letters) == 2 * len(g.vertices), (n, even)
                assert set(letters[:half]) == set(g.vertices), (n, even)
                assert set(letters[half:]) == set(g.vertices), (n, even)
                assert len(set(letters[:half])) == half, (n, even)
        for n in range(1, 5):
            g, _ = complement_path_graph(n)
            assert is_comparability(g) is not None, n


def test_criterion_8_characterization_equivalence():
    with Budget("8 characterization equivalence 3+3", 600):
        labels_a, labels_b = ("a1", "a2", "a3"), ("b1", "b2", "b3")
        partition = CoBipartitePartition(labels_a, labels_b)
        base = list(combinations(labels_a, 2)) + list(combinations(labels_b, 2))
        crosspairs = [(a, b) for a in labels_a for b in labels_b]
        disagreements = []
        orientations = 0
        stages = Counter()
        for bits in range(512):
            cross = [crosspairs[t] for t in range(9) if bits >> t & 1]
            g = Graph.from_edges(labels_a + labels_b, base + cross)
            searcher = ShortcutSearcher(g)
            for out in acyclic_outsets(g):
                orientations += 1
                o = Orientation(g, out)
                path_verdict = searcher.find(out) is None
                structural_verdict, report = is_semi_transitive_cobip(o, partition)
                stages[report.failed_stage] += 1
                if path_verdict != structural_verdict:
                    disagreements.append({
                        "crossBits": bits,
                        "arcs": [f"{u} -> {v}" for u, v in o.arcs()],
                        "pathOracle": path_verdict,
                        "structuralOracle": structural_verdict,
                        "report": report.to_json(),
                    })
        if disagreements:
            ARTIFACT_DIR.mkdir(exist_ok=True)
            artifact = ARTIFACT_DIR / "criterion8_disagreements.json"
            artifact.write_text(json.dumps(disagreements, indent=2))
            raise AssertionError(
                f"{len(disagreements)} oracle disagreements, dumped to {artifact}"
            )
        assert orientations == 145_152  # every acyclic orientation, each once
        # first failing structural stage; lemmas 4.1 and 4.3 are never first here
        assert stages == {None: 22_536, "typing": 97_056, "lemma42": 25_560}


def test_criterion_9_word_calculus_closure():
    with Budget("9 word-calculus closure", 10):
        rng = random.Random(99)
        for _ in range(1000):
            letters = [str(i) for i in range(1, rng.randint(2, 6) + 1)]
            bag = []
            for letter in letters:
                bag += [letter] * rng.randint(1, 4)
            rng.shuffle(bag)
            w = Word(tuple(bag))
            assert alternation_relation(prepend_initial(w)) == alternation_relation(w)
        for _ in range(500):
            letters = [str(i) for i in range(1, rng.randint(2, 6) + 1)]
            k = rng.randint(1, 4)
            bag = [letter for letter in letters for _ in range(k)]
            rng.shuffle(bag)
            w = Word(tuple(bag))
            rel = alternation_relation(w)
            for cut in range(len(bag) + 1):
                assert alternation_relation(rotate_uniform(w, cut)) == rel


def test_criterion_10_cross_oracle_representability():
    with Budget("10 cross-oracle on all 5-vertex graphs", 600):
        labels = ("a", "b", "c", "d", "e")
        pairs = list(combinations(labels, 2))
        contradictions = []
        for bits in range(1 << len(pairs)):
            edges = [pairs[t] for t in range(len(pairs)) if bits >> t & 1]
            g = Graph.from_edges(labels, edges)
            k = bounded_representation_number(g, 3)
            if k is not None:
                w = find_uniform_word(g, k)
                assert represents(w, g).ok, bits
                if not is_word_representable(g):
                    contradictions.append(bits)
        assert contradictions == []
