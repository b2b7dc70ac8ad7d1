"""Command-line front door.

Subcommands:

* ``construct <family>`` builds a family word, re-verifies it against the
  family graph, and prints a JSON envelope (or the bare word with
  ``--format text``).
* ``verify`` checks a word file against a graph file.
* ``representable`` decides word-representability by exhaustive
  orientation search.
* ``characterize`` sweeps the acyclic orientations of a co-bipartite
  graph with both semi-transitivity oracles and reports disagreements.
* ``catalog [family]`` writes the named witnesses and parametric families
  as graph files with a checksum manifest; with no family, all of them.

Every command but ``construct --format text`` prints one JSON payload.
The families of ``construct`` and ``catalog`` are subcommands that declare
exactly the flags they read, so argparse alone rejects any other.

Graph, word and manifest files are read and written as UTF-8, whatever
the locale.

Exit codes: 0 success or positive verdict, 1 legitimate negative verdict,
2 usage, parse, encoding or cap errors.  ``main`` returns every one of
them, usage errors included; only ``run`` exits the process.

A command imports only the modules it runs: ``representable`` and
``verify`` load ``graphs``, ``words`` and ``orientations``, which this
module imports; ``characterize`` also imports ``cobipartite``,
``construct`` also ``constructions``, and ``catalog`` also
``constructions`` and ``hashlib``, each inside the code that calls it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, Optional

from . import graphs as gr
from . import orientations as ori
from . import words as wd

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _write(path: Path, text: str) -> None:
    # Under a non-UTF-8 locale, argv holds a label's undecodable bytes as
    # surrogates (PEP 383); write those bytes back as they came.
    path.write_text(text, encoding="utf-8", errors="surrogateescape")


# --- construct -------------------------------------------------------------

def _build_family(args: argparse.Namespace):
    """Word plus the graph it must represent, for one family instance.

    The path, cycle and crown graphs come first: their builders reject an
    ``--n`` above the vertex cap before any list grows with it.
    """
    from . import constructions as cons

    if args.family == "complement-path":
        even = not args.odd
        graph, _ = cons.complement_path_graph(args.n, even)
        word = cons.word_complement_path(args.n, even)
        return word, graph, {"n": args.n, "even": even}
    if args.family == "complement-cycle":
        graph, _ = cons.complement_cycle_graph(args.n)
        word = cons.word_complement_even_cycle(args.n)
        return word, graph, {"n": args.n}
    if args.family == "crown":
        params = gr.GeneralizedCrownParams(args.n, args.k)
        graph, _ = cons.complement_crown_graph(params)
        word = cons.word_generalized_crown(params)
        return word, graph, {"n": args.n, "k": args.k}
    profile = cons.parse_profile(args.profile, 2 if args.family == "cobip-k2" else 3)
    word = cons.word_cobip(profile)
    graph, _ = cons.cobip_graph(profile)
    classes = {m: "".join(sorted(adj)) or "0" for m, adj in profile.adjacency.items()}
    return word, graph, {"profile": classes}


def cmd_construct(args: argparse.Namespace) -> int:
    word, graph, params = _build_family(args)
    verified = wd.represents(word, graph).ok
    if args.out is not None:
        _write(args.out, wd.format_word_text(word))
    if args.format == "text":
        print(word)
        print(f"verified: {str(verified).lower()}")
    else:
        _emit({"family": args.family, "params": params,
               "word": str(word), "verified": verified})
    return EXIT_OK if verified else EXIT_NEGATIVE


# --- verify ----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    graph, _ = gr.parse_graph_text(_read(args.graph))
    word = wd.parse_word_text(_read(args.word))
    report = wd.represents(word, graph)
    _emit(report.to_json())
    return EXIT_OK if report.ok else EXIT_NEGATIVE


# --- representable -----------------------------------------------------------


def cmd_representable(args: argparse.Namespace) -> int:
    graph, _ = gr.parse_graph_text(_read(args.graph))
    ori._check_cap(graph, args.max_vertices)
    # The word search has the smaller caps, so its errors come before the
    # decider runs; it refutes a negative without asking the decider.
    number = (None if args.max_k is None
              else ori.bounded_representation_number(graph, args.max_k))
    found = ori.find_semi_transitive_orientation(graph, args.max_vertices)
    payload: dict = {"representable": found is not None}
    if found is not None:
        payload["orientation"] = [f"{u} -> {v}" for u, v in found.arcs()]
    else:
        payload["witnessSummary"] = {
            "acyclicOrientations": ori.count_acyclic_orientations(graph),
            "semiTransitive": 0,
        }
    if args.max_k is not None:
        payload["representationNumber"] = number
    if args.max_walk is not None:
        walk = ori.find_noncomparability_witness(graph, args.max_walk)
        payload["oddWalk"] = list(walk) if walk else None
    _emit(payload)
    return EXIT_OK if found is not None else EXIT_NEGATIVE


# --- characterize ------------------------------------------------------------


def cmd_characterize(args: argparse.Namespace) -> int:
    from .cobipartite import sweep_orientations

    graph, partition = gr.parse_graph_text(_read(args.graph))
    if partition is None:
        raise gr.GraphError("characterize needs cliqueA/cliqueB lines in the graph file")
    ori._check_cap(graph, args.max_vertices)
    result = sweep_orientations(
        graph,
        partition,
        sample_threshold=args.sample_threshold,
        seed=args.seed,
    )
    _emit(result.to_json())
    return EXIT_OK if not result.disagreements else EXIT_NEGATIVE


# --- catalog -----------------------------------------------------------------


def _parse_range(text: Optional[str], default: tuple[int, int]) -> range:
    if text is None:
        lo, hi = default
    else:
        lo_s, dots, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s if dots else lo_s)
        except ValueError:
            raise gr.GraphError(f"range {text!r} is not N or N..M") from None
    if lo > hi:
        raise gr.GraphError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _catalog_entries(args: argparse.Namespace):
    from . import constructions as cons

    family = args.family
    if family in (None, "t1bar"):
        yield "t1bar", gr.named_witness("T1bar")
    if family in (None, "t2bar"):
        yield "t2bar", gr.named_witness("T2bar")
    if family in (None, "g1bar"):
        for n in _parse_range(args.n, (3, 4)):
            yield f"g1bar-n{n}", gr.named_witness("G1bar", n)
    if family in (None, "complement-path"):
        for n in _parse_range(args.n, (1, 4)):
            yield f"co-path-n{n}", cons.complement_path_graph(n)
    if family in (None, "complement-cycle"):
        for n in _parse_range(args.n, (2, 4)):
            yield f"co-cycle-n{n}", cons.complement_cycle_graph(n)
    if family in (None, "crown"):
        for n in _parse_range(args.n, (2, 4)):
            ks = range(n) if args.k is None else _parse_range(args.k, (0, n - 1))
            for k in range(max(ks.start, 0), min(ks.stop, n)):
                yield f"crown-n{n}-k{k}", cons.complement_crown_graph(
                    gr.GeneralizedCrownParams(n, k)
                )


def cmd_catalog(args: argparse.Namespace) -> int:
    import hashlib

    entries = list(_catalog_entries(args))
    if not entries:
        raise gr.GraphError("the selection matches no catalog graph")
    out_dir = args.out or Path("catalog")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, (graph, partition) in entries:
        text = gr.format_graph_text(graph, partition)
        path = out_dir / f"{name}.graph"
        _write(path, text)
        manifest.append({
            "name": path.name,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "vertices": len(graph.vertices),
            "edges": graph.edge_count,
        })
    manifest.sort(key=lambda item: item["name"])
    manifest_text = json.dumps({"files": manifest}, indent=2) + "\n"
    _write(out_dir / "manifest.json", manifest_text)
    _emit({"outDir": str(out_dir), "files": manifest})
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def _int_at_least(low: int, odd: bool = False) -> Callable[[str], int]:
    """An argparse type: an integer (an odd one with ``odd``) of at least ``low``."""
    kind = "an odd integer" if odd else "an integer"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or odd and value % 2 == 0:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind} >= {low}")
        return value
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="Representing words and semi-transitive orientations for "
                    "co-bipartite graph families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and verify a family word")
    p.set_defaults(handler=cmd_construct)
    families = p.add_subparsers(dest="family", required=True, metavar="family")

    def family(name: str, help: str) -> argparse.ArgumentParser:
        f = families.add_parser(name, help=help)
        f.add_argument("--out", type=Path, help="also write the word file here")
        f.add_argument("--format", choices=("json", "text"), default="json")
        return f

    f = family("complement-path", "co-bipartite complement of a path")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--odd", action="store_true", help="drop the last primed vertex")
    f = family("complement-cycle", "co-bipartite complement of an even cycle")
    f.add_argument("--n", type=int, required=True)
    f = family("crown", "co-bipartite complement of a generalized crown")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--k", type=int, required=True)
    for size in (2, 3):
        f = family(f"cobip-k{size}", f"co-bipartite graph with a fixed clique of size {size}")
        f.add_argument("--profile", default="", help="comma list label:class, e.g. a:N12,b:N1")

    p = sub.add_parser("verify", help="check a word file against a graph file")
    p.add_argument("graph")
    p.add_argument("word")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("representable", help="exhaustive orientation search")
    p.add_argument("graph")
    p.add_argument("--max-vertices", type=int, default=ori.DEFAULT_MAX_VERTICES)
    p.add_argument("--max-k", type=_int_at_least(1),
                   help="also report the bounded representation number")
    p.add_argument("--max-walk", type=_int_at_least(5, odd=True),
                   help="also search for a chordless odd closed walk")
    p.set_defaults(handler=cmd_representable)

    p = sub.add_parser("characterize",
                       help="dual-oracle sweep over acyclic orientations")
    p.add_argument("graph")
    p.add_argument("--max-vertices", type=int, default=ori.DEFAULT_MAX_VERTICES)
    p.add_argument("--workers", type=int, choices=(1,), default=1,
                   help="must be 1: the sweep runs in one process; the flag stays only "
                        "for command lines that pass --workers 1, such as perfbench's")
    # Random seeds from abs(seed), so a negative seed would repeat a positive one's draws
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--sample-threshold", type=_int_at_least(1),
                   default=ori.DEFAULT_SAMPLE_THRESHOLD)
    p.set_defaults(handler=cmd_characterize)

    p = sub.add_parser("catalog", help="write family graph files plus manifest",
                       usage="%(prog)s [-h] [--out DIR] [family ...]")
    p.add_argument("--out", type=Path, metavar="DIR")
    p.set_defaults(handler=cmd_catalog, n=None, k=None)
    families = p.add_subparsers(dest="family", metavar="family", prog=p.prog,
                                help="write this family only (default: every family)")
    families.add_parser("t1bar", help="the 7-vertex witness T1bar")
    families.add_parser("t2bar", help="the 7-vertex witness T2bar")
    for name, help in (("g1bar", "crown complements plus a dominant vertex"),
                       ("complement-path", "co-bipartite complements of paths"),
                       ("complement-cycle", "co-bipartite complements of even cycles"),
                       ("crown", "co-bipartite complements of generalized crowns")):
        f = families.add_parser(name, help=help)
        f.add_argument("--n", help="range like 3 or 2..5")
    f.add_argument("--k", help="range like 0 or 0..2")  # crown, the last family
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2), or --help (0)
        return exc.code
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
