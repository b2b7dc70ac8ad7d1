"""The three workloads: seeded input streams, the timed requests and their checks.

A workload is an endless stream of ``Case`` objects.  The stream repeats a
fixed cycle of input classes, shuffled within each cycle, so every run of
any length sees the classes in the same proportions; only the random
choices inside a class depend on the seed.  ``Case.run`` is the timed
request, ``Case.check`` compares its output with the known answer using
only the benchmark's own reference code.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from itertools import count
from math import factorial
from pathlib import Path
from random import Random
from typing import Any, Callable, Iterator

import inputs as gen
import reference as ref
from reference import require

WORKLOADS = ("representable", "characterize", "certify")


@dataclass
class Case:
    kind: str
    input: str  # the graph file or command line, for reports and tests
    run: Callable[[], Any]
    check: Callable[[Any], None]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI request; stdout and stderr are captured."""
    from wordrep import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_json(result: tuple[int, str], expected_code: int) -> dict:
    code, text = result
    require(code == expected_code, f"exit code {code}, expected {expected_code}")
    return json.loads(text)


def _arcs(lines: list[str]) -> list[tuple[str, str]]:
    return [tuple(line.split(" -> ")) for line in lines]


# --- representable ------------------------------------------------------------
#
# Two thirds positives from the paper's families, one third negatives that
# contain T1bar, T2bar or the wheel W5 as an induced subgraph, so hereditary
# non-representability fixes their answer.  All inputs have 7 or 8 vertices.
# Seven of the eight positives per cycle have 7 vertices, so the median
# falls inside that group and the 90th percentile inside the T1bar/T2bar
# negatives, not on a boundary between classes of different cost.  The cost
# of a negative grows with the degree of its extra vertices, so the degrees
# rotate over a fixed schedule, as do the 8-vertex family members; every
# run then sees the same mix whatever the seed.

EIGHT_VERTEX_POSITIVES = (
    ("co-path-8", gen.co_path(4)),
    ("co-cycle-8", gen.co_cycle(4)),
    *(("co-crown-8", gen.co_crown(4, k)) for k in range(3)),
)
EXTRA_DEGREES = (2, 3, 4, 5)
# Class sizes (how many fixed-clique vertices a member sees) of the three
# random profiles per cycle; the cost follows the number of cross edges.
K2_SIZES = ((0, 1, 1, 2, 2), (0, 0, 1, 2, 2), (0, 1, 1, 1, 2))
K3_SIZES = ((1, 1, 2, 2), (1, 2, 2, 2), (1, 1, 1, 2))


def _representable_cycle(rng: Random, cycle: int) -> list[tuple[str, gen.Graph, bool]]:
    kind, positive = EIGHT_VERTEX_POSITIVES[cycle % len(EIGHT_VERTEX_POSITIVES)]
    d = EXTRA_DEGREES[cycle % len(EXTRA_DEGREES)]
    return [
        (kind, positive, True),
        ("co-path-7", gen.co_path(4, even=False), True),
        *(("cobip-k2-7", gen.random_profile_graph(2, sizes, rng), True) for sizes in K2_SIZES),
        *(("cobip-k3-7", gen.random_profile_graph(3, sizes, rng), True) for sizes in K3_SIZES),
        ("t1bar+1", gen.with_extra_vertices(gen.t1bar(), [d], rng), False),
        ("t2bar+1", gen.with_extra_vertices(gen.t2bar(), [7 - d], rng), False),
        ("w5+1", gen.with_extra_vertices(gen.wheel5(), [d], rng), False),
        ("w5+2", gen.with_extra_vertices(gen.wheel5(), [d, 7 - d], rng), False),
    ]


def _representable_case(kind: str, g: gen.Graph, expected: bool, path: Path) -> Case:
    text = g.text()
    path.write_text(text)
    argv = ["representable", str(path)]

    def check(result) -> None:
        payload = _cli_json(result, 0 if expected else 1)
        require(payload["representable"] is expected, "wrong representability verdict")
        if expected:
            ref.check_semi_transitive(g.labels, g.edges, _arcs(payload["orientation"]))
        else:
            summary = payload["witnessSummary"]
            require(summary["acyclicOrientations"]
                    == ref.count_acyclic_orientations(g.labels, g.edges),
                    "acyclic orientation count differs from the recurrence")
            require(summary["semiTransitive"] == 0, "negative verdict with a semi-transitive count")

    return Case(kind, text, lambda: call_cli(argv), check)


# --- characterize ---------------------------------------------------------------
#
# 3+3 cross patterns (the acceptance criterion-8 family), 3+4 patterns with
# one in four sampled at 2500 < 7! orders, and T1bar and T2bar.  Known answers:
# the two oracles agree (the paper's characterization), the orientation
# count of a full sweep matches the recurrence, and a graph has a
# semi-transitive orientation unless it is T1bar or T2bar (the only two
# non-representable co-bipartite graphs on 7 vertices; every graph on at
# most 6 vertices except W5, which is not co-bipartite, is representable).


# The cost of a pattern follows its number of cross edges, so each slot has
# a fixed count and only the choice of edges is random.  The three cheap 3+3
# patterns and the sampled sweep make up 40% of a cycle, so the median falls
# among T1bar, T2bar and the sparsest full 3+4 sweeps.
SAMPLE_THRESHOLD = 2500


def _characterize_cycle(rng: Random) -> list[tuple[str, gen.Graph, int | None]]:
    cases: list[tuple[str, gen.Graph, int | None]] = [
        ("cross-3+3", gen.random_cross_pattern(3, 3, cross, rng), None) for cross in (3, 4, 6)
    ]
    cases += [("cross-3+4", gen.random_cross_pattern(3, 4, cross, rng), None)
              for cross in (4, 5, 6, 7)]
    cases.append(("cross-3+4-sampled", gen.random_cross_pattern(3, 4, 6, rng),
                  SAMPLE_THRESHOLD))
    cases += [("t1bar", gen.t1bar(), None), ("t2bar", gen.t2bar(), None)]
    return cases


def _characterize_case(kind: str, g: gen.Graph, threshold: int | None, seed: int,
                       path: Path) -> Case:
    text = g.text()
    path.write_text(text)
    argv = ["characterize", str(path), "--workers", "1"]
    if threshold is not None:
        argv += ["--sample-threshold", str(threshold), "--seed", str(seed)]
        text += f"# sampled {threshold} orders with seed {seed}\n"
    representable = len(g.labels) < 7 or not gen.is_t1_or_t2(g)

    def check(result) -> None:
        payload = _cli_json(result, 0)
        require(payload["disagreements"] == [], "the two oracles disagree")
        total = ref.count_acyclic_orientations(g.labels, g.edges)
        count, semi = payload["orientations"], payload["semiTransitive"]
        require(0 <= semi <= count, "semi-transitive count out of range")
        if not representable:
            require(semi == 0, "semi-transitive orientation of a non-representable graph")
        if threshold is None:
            require(payload["sampled"] is False, "full sweep reported as sampled")
            require(payload["ordersExamined"] == factorial(len(g.labels)), "wrong order count")
            require(count == total, "orientation count differs from the recurrence")
            if representable:
                require(semi >= 1, "no semi-transitive orientation of a representable graph")
        else:
            require(payload["sampled"] is True and payload["seed"] == seed,
                    "sampled sweep not reported with its seed")
            require(payload["ordersExamined"] == threshold, "wrong sampled order count")
            require(1 <= count <= total, "sampled orientation count out of range")

    return Case(kind, text, lambda: call_cli(argv), check)


# --- certify --------------------------------------------------------------------
#
# The polynomial and comparability side.  Known answers: bipartite graphs
# and path complements are comparability graphs; odd cycles and crown
# complements (which contain the prism, an asteroidal-triple complement)
# are not; a graph with a dominant vertex is representable exactly when
# the rest is a comparability graph; the prism needs multiplicity 3, W5
# has no representing word, complete graphs need 1; family words come from
# the paper's constructions.  Three of the sixteen inputs per cycle are
# 8-vertex crown complements, whose exhaustive comparability search is the
# costliest; the 90th percentile falls in the middle of that group.  The
# comparability yes-cases stop at the first transitive orientation, after
# a number of orders that the relabelling sets, so they are kept small
# (6 and 5 vertices) and stay below the median whatever the seed.


def _library(graph: gen.Graph):
    from wordrep.graphs import Graph

    return Graph.from_edges(graph.labels, graph.edge_list())


def _comparability_case(kind: str, g: gen.Graph, comparable: bool) -> Case:
    from wordrep import orientations as ori

    lib, lib_cone = _library(g), _library(gen.cone(g))

    def run():
        transitive = ori.is_comparability(lib)
        walk = None if comparable else ori.find_noncomparability_witness(lib, 7)
        return transitive, walk, ori.representable_via_dominant(lib_cone, "z")

    def check(result) -> None:
        transitive, walk, dominant = result
        require((transitive is not None) is comparable, "wrong comparability verdict")
        require(dominant is comparable, "wrong dominant-vertex verdict")
        if comparable:
            ref.check_transitive(g.labels, g.edges, transitive.arcs())
        else:
            require(walk is not None, "no odd-walk witness for a non-comparability graph")
            ref.check_chordless_odd_walk(g.edges, walk)

    return Case(kind, g.text(), run, check)


def _multiplicity_case(kind: str, g: gen.Graph, expected: int | None) -> Case:
    from wordrep import orientations as ori

    lib = _library(g)

    def check(result) -> None:
        require(result == expected, f"representation number {result}, expected {expected}")

    return Case(kind, g.text(), lambda: ori.bounded_representation_number(lib, 3), check)


def _construct_case(kind: str, argv: list[str], g: gen.Graph) -> Case:
    def check(result) -> None:
        payload = _cli_json(result, 0)
        require(payload["verified"] is True, "construct did not verify its word")
        ref.check_word_represents(g.labels, g.edges, payload["word"].split())

    return Case(kind, " ".join(argv), lambda: call_cli(argv), check)


def _certify_cycle(rng: Random, cycle: int) -> list[Case]:
    # Sizes rotate, so every run sees the same sizes in the same proportions.
    step = cycle % 5
    n = 16 + 4 * step  # 32 to 64 vertices
    k_crown = rng.randrange(n)
    odd = rng.random() < 0.5
    k2 = [rng.choice(gen.K2_CLASSES) for _ in range(2 * n - 2)]
    k3 = [rng.choice(gen.K3_CLASSES) for _ in range(2 * n - 3)]
    path_argv = ["construct", "complement-path", "--n", str(n)] + (["--odd"] if odd else [])
    return [
        _comparability_case("bipartite", gen.random_bipartite(3, 3, rng).shuffled(rng), True),
        _comparability_case("co-path", gen.path(5).complement().shuffled(rng), True),
        _comparability_case("c5", gen.cycle(5).shuffled(rng), False),
        _comparability_case("c7", gen.cycle(7).shuffled(rng), False),
        _comparability_case("co-crown-3", gen.co_crown(3, 0).shuffled(rng), False),
        *(_comparability_case("co-crown-4", gen.co_crown(4, 0).shuffled(rng), False)
          for _ in range(3)),
        _multiplicity_case("prism", gen.co_crown(3, 0).shuffled(rng), 3),
        _multiplicity_case("w5", gen.wheel5().shuffled(rng), None),
        _multiplicity_case("complete", gen.complete(2 + step).shuffled(rng), 1),
        _construct_case("construct-path", path_argv, gen.co_path(n, not odd)),
        _construct_case("construct-cycle", ["construct", "complement-cycle", "--n", str(n)],
                        gen.co_cycle(n)),
        _construct_case("construct-crown", ["construct", "crown", "--n", str(n),
                                            "--k", str(k_crown)], gen.co_crown(n, k_crown)),
        _construct_case("construct-k2", ["construct", "cobip-k2", "--profile", gen.profile_arg(k2)],
                        gen.profile_graph(2, k2)),
        _construct_case("construct-k3", ["construct", "cobip-k3", "--profile", gen.profile_arg(k3)],
                        gen.profile_graph(3, k3)),
    ]


CYCLE_LENGTH = {"representable": 12, "characterize": 10, "certify": 16}


def cases(workload: str, seed: int, workdir: Path) -> Iterator[Case]:
    """Endless seeded stream of cases; graph files are written into ``workdir``."""
    if workload not in CYCLE_LENGTH:
        raise ValueError(f"unknown workload {workload!r}")
    rng = Random(seed)
    for cycle in count():
        first = cycle * CYCLE_LENGTH[workload]
        if workload == "representable":
            batch = [_representable_case(kind, g.shuffled(rng), expected,
                                         workdir / f"{first + t}.graph")
                     for t, (kind, g, expected) in enumerate(_representable_cycle(rng, cycle))]
        elif workload == "characterize":
            batch = [_characterize_case(kind, g.shuffled(rng), threshold, rng.randrange(1 << 30),
                                        workdir / f"{first + t}.graph")
                     for t, (kind, g, threshold) in enumerate(_characterize_cycle(rng))]
        else:
            batch = _certify_cycle(rng, cycle)
        rng.shuffle(batch)
        yield from batch
