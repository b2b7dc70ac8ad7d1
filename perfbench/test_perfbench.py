"""Tests of the benchmark itself: reference checks, failure counting, determinism.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from math import factorial
from random import Random

import pytest

import inputs as gen
import reference as ref
import run
import workloads

run.load_package()


# --- reference checks on known values ---------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_complete_graph_has_n_factorial_acyclic_orientations(n):
    g = gen.complete(n)
    assert ref.count_acyclic_orientations(g.labels, g.edges) == factorial(n)


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_has_two_to_the_n_minus_two_acyclic_orientations(n):
    g = gen.cycle(n)
    assert ref.count_acyclic_orientations(g.labels, g.edges) == 2 ** n - 2


@pytest.mark.parametrize("graph, count", [
    (gen.t1bar(), 1752), (gen.t2bar(), 1704), (gen.g1bar(4), 60120),
])
def test_witness_acyclic_orientation_counts(graph, count):
    assert ref.count_acyclic_orientations(graph.labels, graph.edges) == count


def test_recurrence_does_not_depend_on_vertex_order():
    g = gen.t2bar().shuffled(Random(5))
    assert ref.count_acyclic_orientations(g.labels, g.edges) == 1704


def test_shortcut_check():
    # The path a->b->c->d with the arc a->d is a shortcut while b and d are
    # not adjacent; adding b->d makes a transitive tournament.
    labels = ("a", "b", "c", "d")
    arcs = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
    edges = frozenset(frozenset(a) for a in arcs)
    with pytest.raises(ref.CheckFailed, match="shortcut"):
        ref.check_semi_transitive(labels, edges, arcs)
    full = arcs + [("b", "d")]
    ref.check_semi_transitive(labels, frozenset(frozenset(a) for a in full), full)


def test_orientation_certificate_must_cover_every_edge_once():
    labels = ("a", "b", "c")
    edges = frozenset({frozenset("ab"), frozenset("bc")})
    with pytest.raises(ref.CheckFailed, match="no direction"):
        ref.check_semi_transitive(labels, edges, [("a", "b")])
    with pytest.raises(ref.CheckFailed, match="twice"):
        ref.check_semi_transitive(labels, edges, [("a", "b"), ("b", "a"), ("b", "c")])
    with pytest.raises(ref.CheckFailed, match="cycle"):
        ref.check_semi_transitive(
            labels, edges | {frozenset("ac")}, [("a", "b"), ("b", "c"), ("c", "a")])


def test_transitivity_check():
    labels = ("a", "b", "c")
    edges = frozenset({frozenset("ab"), frozenset("bc")})
    ref.check_transitive(labels, edges, [("a", "b"), ("c", "b")])
    with pytest.raises(ref.CheckFailed, match="transitive"):
        ref.check_transitive(labels, edges, [("a", "b"), ("b", "c")])


def test_odd_walk_chord_check():
    c5 = gen.cycle(5)
    ref.check_chordless_odd_walk(c5.edges, ("0", "1", "2", "3", "4"))
    with pytest.raises(ref.CheckFailed, match="chord"):
        ref.check_chordless_odd_walk(gen.wheel5().edges, ("0", "1", "5", "3", "4"))
    with pytest.raises(ref.CheckFailed, match="odd"):
        ref.check_chordless_odd_walk(gen.cycle(6).edges, tuple("012345"))


def test_word_alternation_check():
    path = gen.path(3)  # 0 - 1 - 2
    ref.check_word_represents(path.labels, path.edges, "0 1 0 2 1 2".split())
    with pytest.raises(ref.CheckFailed, match="alternation"):
        ref.check_word_represents(path.labels, path.edges, "0 1 2 0 1 2".split())


def test_t1_t2_recognition():
    rng = Random(3)
    assert gen.is_t1_or_t2(gen.t1bar().shuffled(rng))
    assert gen.is_t1_or_t2(gen.t2bar().shuffled(rng))
    assert not gen.is_t1_or_t2(gen.co_path(4, even=False))


def test_families_match_the_package():
    from wordrep import constructions as cons
    from wordrep import graphs as gr

    def same(ours, theirs):
        assert set(ours.labels) == set(theirs.vertices)
        assert ours.edges == frozenset(frozenset(e) for e in theirs.edges())

    same(gen.co_path(5), cons.complement_path_graph(5)[0])
    same(gen.co_path(5, even=False), cons.complement_path_graph(5, False)[0])
    same(gen.co_cycle(5), cons.complement_cycle_graph(5)[0])
    same(gen.co_crown(5, 2), cons.complement_crown_graph(gr.GeneralizedCrownParams(5, 2))[0])
    same(gen.t1bar(), gr.named_witness("T1bar")[0])
    same(gen.t2bar(), gr.named_witness("T2bar")[0])


# --- failures are counted ----------------------------------------------------


def _first(workload, kind, tmp_path, seed=1):
    return next(c for c in workloads.cases(workload, seed, tmp_path) if c.kind == kind)


def test_wrong_expected_verdict_is_a_failure(tmp_path):
    g = gen.with_extra_vertices(gen.t1bar(), [3], Random(0))
    case = workloads._representable_case("t1bar+1", g, True, tmp_path / "g.graph")
    tally = run.Tally()
    tally.record(case)
    assert tally.attempted == 1 and len(tally.failures) == 1


def test_corrupted_orientation_is_a_failure(tmp_path):
    case = _first("representable", "co-path-7", tmp_path)
    original = case.run

    def corrupted():
        code, text = original()
        payload = json.loads(text)
        payload["orientation"].pop()
        return code, json.dumps(payload)

    tally = run.Tally()
    tally.record(case)
    assert tally.failures == []
    case.run = corrupted
    tally.record(case)
    assert tally.attempted == 2 and len(tally.failures) == 1


def test_corrupted_word_is_a_failure(tmp_path):
    case = _first("certify", "construct-path", tmp_path)
    original = case.run

    def corrupted():
        code, text = original()
        payload = json.loads(text)
        letters = payload["word"].split()
        letters[0], letters[-1] = letters[-1], letters[0]
        payload["word"] = " ".join(letters)
        return code, json.dumps(payload)

    tally = run.Tally()
    tally.record(case)
    assert tally.failures == []
    case.run = corrupted
    tally.record(case)
    assert tally.attempted == 2 and len(tally.failures) == 1


def test_raising_request_is_a_failure(tmp_path):
    case = _first("certify", "c5", tmp_path)

    def boom():
        raise RuntimeError("boom")

    case.run = boom
    tally = run.Tally()
    tally.record(case)
    assert len(tally.failures) == 1 and "boom" in tally.failures[0]


# --- seeds and determinism ---------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    def inputs(seed, name):
        stream = workloads.cases(workload, seed, tmp_path / name)
        (tmp_path / name).mkdir()
        return [(c.kind, c.input) for c in islice(stream, 2 * workloads.CYCLE_LENGTH[workload])]

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    assert first != inputs(8, "c")


UNUSED = {
    "representable": ("cobipartite.structural", "orientations.comparability",
                      "orientations.oddwalk", "orientations.uniform_word", "words.represents"),
    "characterize": ("orientations.comparability", "orientations.oddwalk",
                     "orientations.uniform_word", "words.represents"),
    "certify": ("cobipartite.structural", "orientations.shortcut", "graphs.parse"),
}


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    results = {}
    for workload in workloads.WORKLOADS:
        runs = []
        for attempt in range(2):
            workdir = tmp_path_factory.mktemp(f"{workload}{attempt}")
            warmup = workdir / "warmup.graph"
            warmup.write_text(run.WARMUP_GRAPH)
            tallies, _, metrics = run.traced(workload, 4, workdir, warmup)
            runs.append((tallies, metrics))
        results[workload] = runs
    return results


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counters_repeat_for_the_same_seed(traced_twice, workload):
    (tallies_a, a), (tallies_b, b) = traced_twice[workload]
    counters = [name for name, m in a.items() if m["unit"] == "count"]
    assert counters
    assert {k: a[k] for k in counters} == {k: b[k] for k in counters}
    assert all(t.failures == [] for t in tallies_a + tallies_b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_predicted_unused_layers_read_zero(traced_twice, workload):
    (_, m), _ = traced_twice[workload]
    for layer in UNUSED[workload]:
        for name, value in m.items():
            if name.startswith(layer + "."):
                assert value["value"] == 0, name
    assert m["orientations.enumerate.orders"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_account_for_the_traced_wall_time(traced_twice, workload):
    (_, m), _ = traced_twice[workload]
    total = sum(v["value"] for name, v in m.items() if name.endswith(".self_s"))
    gap = abs(m["trace.wall_s"]["value"] - total)
    assert gap <= max(m["trace.overhead_s"]["value"], 0.0) + 0.01 * total


def test_per_layer_metrics_match_the_benchmark_file(traced_twice):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    for workload in workloads.WORKLOADS:
        (_, m), _ = traced_twice[workload]
        assert set(m) == names


# --- command line --------------------------------------------------------------


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert result.stdout == ""


def test_end_to_end_result_line():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert result.returncode == 0
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= run.MIN_VERDICTS
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for m in declared["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


def test_yardstick_scaling_cancels_a_uniform_slowdown():
    times = [0.01, 0.02, 0.03, 0.04]
    slow = [2 * run.REFERENCE_YARDSTICK_S] * 4
    assert run.scaled(times, slow) == pytest.approx([t / 2 for t in times])
    spell = [run.REFERENCE_YARDSTICK_S] * 20 + [3 * run.REFERENCE_YARDSTICK_S] * 20
    flat = run.scaled([0.01] * 20 + [0.03] * 20, spell)
    assert flat[:15] == pytest.approx([0.01] * 15) and flat[-15:] == pytest.approx([0.01] * 15)
