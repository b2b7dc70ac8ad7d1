"""Command-line front door.

Subcommands:

* ``construct`` builds a family word, re-verifies it against the family
  graph, and prints a JSON envelope (or the bare word with ``--format text``).
* ``verify`` checks a word file against a graph file.
* ``representable`` decides word-representability by exhaustive
  orientation search.
* ``characterize`` sweeps the acyclic orientations of a co-bipartite
  graph with both semi-transitivity oracles and reports disagreements.
* ``catalog`` writes the named witnesses and parametric families as graph
  files with a checksum manifest.

Exit codes: 0 success or positive verdict, 1 legitimate negative verdict,
2 usage, parse, or cap errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

from . import constructions as cons
from . import graphs as gr
from . import orientations as ori
from . import words as wd
from .cobipartite import sweep_orientations

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# --- construct -------------------------------------------------------------


def _build_family(family: str, args: argparse.Namespace):
    """Word plus the graph it must represent, for one family instance."""
    if family == "complement-path":
        n = _require_n(args)
        even = not args.odd
        word = cons.word_complement_path(n, even)
        graph, _ = cons.complement_path_graph(n, even)
        return word, graph, {"n": n, "even": even}
    if family == "complement-cycle":
        n = _require_n(args)
        word = cons.word_complement_even_cycle(n)
        graph, _ = cons.complement_cycle_graph(n)
        return word, graph, {"n": n}
    if family == "crown":
        n = _require_n(args)
        if args.k is None:
            raise gr.GraphError("crown needs --k")
        params = gr.GeneralizedCrownParams(n, args.k)
        word = cons.word_generalized_crown(params)
        graph, _ = cons.complement_crown_graph(params)
        return word, graph, {"n": n, "k": args.k}
    if family in ("cobip-k2", "cobip-k3"):
        size = 2 if family == "cobip-k2" else 3
        profile = cons.parse_profile(args.profile or "", size)
        if size == 2:
            word = cons.word_cobip_k2(profile)
            graph, _ = cons.cobip_k2_graph(profile)
        else:
            word = cons.word_cobip_k3(profile)
            graph, _ = cons.cobip_k3_graph(profile)
        classes = {m: "".join(sorted(adj)) or "0" for m, adj in profile.adjacency.items()}
        return word, graph, {"profile": classes}
    raise gr.GraphError(f"unknown family {family!r}")


def _require_n(args: argparse.Namespace) -> int:
    if args.n is None:
        raise gr.GraphError("this family needs --n")
    return args.n


def cmd_construct(args: argparse.Namespace) -> int:
    word, graph, params = _build_family(args.family, args)
    verified = wd.represents(word, graph).ok
    if args.out is not None:
        args.out.write_text(wd.format_word_text(word))
    payload = {
        "family": args.family,
        "params": params,
        "word": str(word),
        "verified": verified,
    }
    _emit(args, payload, [str(word), f"verified: {str(verified).lower()}"])
    return EXIT_OK if verified else EXIT_NEGATIVE


# --- verify ----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    graph, _ = gr.parse_graph_text(Path(args.graph).read_text())
    word = wd.parse_word_text(Path(args.word).read_text())
    report = wd.represents(word, graph)
    lines = ["ok" if report.ok else "violations:"]
    lines += [
        f"  {v.x} {v.y}: restriction {v.restriction!r} expected to {v.expected}"
        for v in report.violations
    ]
    _emit(args, report.to_json(), lines)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


# --- representable -----------------------------------------------------------


def cmd_representable(args: argparse.Namespace) -> int:
    graph, _ = gr.parse_graph_text(Path(args.graph).read_text())
    ori._check_cap(graph, args.max_vertices)
    searcher = ori.ShortcutSearcher(graph)
    found = None
    acyclic = 0
    for out in ori.acyclic_outsets(graph):
        acyclic += 1
        if searcher.find(out) is None:
            found = ori.Orientation(graph, out)
            break
    payload: dict = {"representable": found is not None}
    lines = [f"representable: {str(found is not None).lower()}"]
    if found is not None:
        payload["orientation"] = [f"{u} -> {v}" for u, v in found.arcs()]
        lines += payload["orientation"]
    else:
        payload["witnessSummary"] = {"acyclicOrientations": acyclic, "semiTransitive": 0}
        lines.append(f"acyclic orientations checked: {acyclic}")
    if args.max_k is not None and len(graph.vertices) <= ori.WORD_SEARCH_MAX_VERTICES:
        payload["representationNumber"] = ori.bounded_representation_number(
            graph, args.max_k
        )
    if args.max_walk is not None:
        walk = ori.find_noncomparability_witness(graph, args.max_walk)
        payload["oddWalk"] = list(walk) if walk else None
    _emit(args, payload, lines)
    return EXIT_OK if found is not None else EXIT_NEGATIVE


# --- characterize ------------------------------------------------------------


def cmd_characterize(args: argparse.Namespace) -> int:
    graph, partition = gr.parse_graph_text(Path(args.graph).read_text())
    if partition is None:
        raise gr.GraphError("characterize needs cliqueA/cliqueB lines in the graph file")
    ori._check_cap(graph, args.max_vertices)
    result = sweep_orientations(
        graph,
        partition,
        workers=args.workers,
        sample_threshold=args.sample_threshold,
        seed=args.seed,
    )
    payload = result.to_json()
    payload["workers"] = args.workers
    lines = [
        f"orientations: {result.orientations}",
        f"semi-transitive: {result.semi_transitive}",
        f"disagreements: {len(result.disagreements)}",
    ]
    if result.sampled:
        lines.append(f"sampled with seed {result.seed}")
    _emit(args, payload, lines)
    return EXIT_OK if not result.disagreements else EXIT_NEGATIVE


# --- catalog -----------------------------------------------------------------


def _parse_range(text: Optional[str], default: tuple[int, int]) -> list[int]:
    if text is None:
        lo, hi = default
    elif ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise gr.GraphError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _catalog_entries(args: argparse.Namespace):
    family = args.family
    if args.n is not None and family in (None, "t1bar", "t2bar"):
        raise gr.GraphError("--n needs a --family other than t1bar or t2bar")
    if args.k is not None and family not in (None, "crown"):
        raise gr.GraphError("--k applies to the crown family only")
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
            ks = _parse_range(args.k, (0, n - 1)) if args.k else range(n)
            for k in ks:
                if 0 <= k <= n - 1:
                    yield f"crown-n{n}-k{k}", cons.complement_crown_graph(
                        gr.GeneralizedCrownParams(n, k)
                    )


def cmd_catalog(args: argparse.Namespace) -> int:
    entries = list(_catalog_entries(args))
    if not entries:
        raise gr.GraphError("the selection matches no catalog graph")
    out_dir = args.out or Path("catalog")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, (graph, partition) in entries:
        text = gr.format_graph_text(graph, partition)
        path = out_dir / f"{name}.graph"
        path.write_text(text)
        manifest.append({
            "name": path.name,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "vertices": len(graph.vertices),
            "edges": graph.edge_count,
        })
    manifest.sort(key=lambda item: item["name"])
    manifest_text = json.dumps({"files": manifest}, indent=2) + "\n"
    (out_dir / "manifest.json").write_text(manifest_text)
    _emit(
        args,
        {"outDir": str(out_dir), "files": manifest},
        [f"wrote {len(manifest)} graphs to {out_dir}"],
    )
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="Representing words and semi-transitive orientations for "
                    "co-bipartite graph families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("construct", help="build and verify a family word")
    p.add_argument("family", choices=(
        "complement-path", "complement-cycle", "crown", "cobip-k2", "cobip-k3"))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--odd", action="store_true",
                   help="complement-path only: drop the last primed vertex")
    p.add_argument("--profile", help="comma list label:class, e.g. a:N12,b:N1")
    p.add_argument("--out", type=Path, help="also write the word file here")
    common(p)

    p = sub.add_parser("verify", help="check a word file against a graph file")
    p.add_argument("graph")
    p.add_argument("word")
    common(p)

    p = sub.add_parser("representable", help="exhaustive orientation search")
    p.add_argument("graph")
    p.add_argument("--max-vertices", type=int, default=ori.DEFAULT_MAX_VERTICES)
    p.add_argument("--max-k", type=int,
                   help="also report the bounded representation number")
    p.add_argument("--max-walk", type=int,
                   help="also search for a chordless odd closed walk")
    common(p)

    p = sub.add_parser("characterize",
                       help="dual-oracle sweep over acyclic orientations")
    p.add_argument("graph")
    p.add_argument("--max-vertices", type=int, default=ori.DEFAULT_MAX_VERTICES)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-threshold", type=int, default=200_000)
    common(p)

    p = sub.add_parser("catalog", help="write family graph files plus manifest")
    p.add_argument("--out", type=Path)
    p.add_argument("--family", choices=(
        "t1bar", "t2bar", "g1bar", "complement-path", "complement-cycle", "crown"))
    p.add_argument("--n", help="range like 3 or 2..5")
    p.add_argument("--k", help="range like 0 or 0..2 (crown only)")
    common(p)
    return parser


_HANDLERS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "representable": cmd_representable,
    "characterize": cmd_characterize,
    "catalog": cmd_catalog,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for flag in ("workers", "sample_threshold", "max_k"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            print(f"error: --{flag.replace('_', '-')} must be >= 1", file=sys.stderr)
            return EXIT_ERROR
    try:
        return _HANDLERS[args.command](args)
    except (gr.GraphError, wd.WordError, ori.OrientationError,
            ori.CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
