"""Command-line behavior: envelopes, exit codes, determinism."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wordrep import constructions, graphs
from wordrep import orientations as ori
from wordrep.cli import build_parser, main
from wordrep.graphs import Graph, format_graph_text, named_witness
from wordrep.constructions import complement_path_graph

from test_acceptance import Budget
from test_orientations import wheel5


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, graph, partition=None):
    path = tmp_path / name
    path.write_text(format_graph_text(graph, partition))
    return path


class TestConstruct:
    def test_complement_path_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "complement-path", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert len(payload["word"].split()) == 12

    def test_crown_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "crown", "--n", "3", "--k", "0", "--format", "text")
        assert code == 0
        word_line, verified_line = out.strip().splitlines()
        assert len(word_line.split()) == 18
        assert verified_line == "verified: true"

    def test_cobip_k2_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "cobip-k2", "--profile", "a:N12", "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "a 1 2 a 1 2"

    @pytest.mark.parametrize("profile, member", [("a b:N1", "'a b'"), (":N1", "''")])
    def test_cobip_profile_member_no_graph_holds_exit_2(self, capsys, profile, member):
        code, out, err = run_cli(capsys, "construct", "cobip-k2", "--profile", profile)
        assert code == 2 and out == "" and f"bad member label {member}" in err

    def test_word_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "word.txt"
        code, _, _ = run_cli(
            capsys, "construct", "complement-cycle", "--n", "2", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == "1 2 1' 1 2' 2 1' 2' 1' 1 2' 2\n"

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "construct", "crown", "--n", "3", "--k", "5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, flag", [
        (["complement-cycle", "--n", "3", "--k", "2"], "--k"),
        (["complement-path", "--n", "3", "--k", "0"], "--k"),
        (["cobip-k3", "--profile", "a:N1", "--k", "1"], "--k"),
        (["complement-cycle", "--n", "3", "--odd"], "--odd"),
        (["crown", "--n", "3", "--k", "1", "--odd"], "--odd"),
        (["complement-path", "--n", "3", "--profile", "a:1"], "--profile"),
        (["crown", "--n", "3", "--k", "1", "--profile", "a:1"], "--profile"),
        (["cobip-k2", "--profile", "a:N12", "--n", "5"], "--n"),
        (["cobip-k3", "--n", "2"], "--n"),
    ])
    def test_flag_the_family_ignores_exit_2(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "construct", *argv)
        assert code == 2 and out == "" and flag in err

    @pytest.mark.parametrize("argv", [
        ["complement-path", "--n", "1000000"],
        ["complement-path", "--n", "1000000", "--odd"],
        ["complement-cycle", "--n", "1000000"],
        ["crown", "--n", "1000000", "--k", "0"],
    ])
    def test_huge_n_exit_2_before_any_list_grows(self, capsys, monkeypatch, argv):
        # Every list that grows with n (labels, word, edges) makes a primed
        # label, so with none made the cap was applied before any of them.
        def unmade(i):
            raise AssertionError("a primed label was made")

        for module in (graphs, constructions):
            monkeypatch.setattr(module, "primed", unmade)
        code, out, err = run_cli(capsys, "construct", *argv)
        assert code == 2 and out == "" and "too many vertices (2000000 > 64)" in err

    def test_missing_n_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "construct", "complement-path")
        assert code == 2 and out == "" and "--n" in err

    def test_crown_without_k_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "construct", "crown", "--n", "3")
        assert code == 2 and out == "" and "--k" in err

    @pytest.mark.parametrize("family, flags", [
        ("complement-path", {"--n", "--odd"}),
        ("complement-cycle", {"--n"}),
        ("crown", {"--n", "--k"}),
        ("cobip-k2", {"--profile"}),
        ("cobip-k3", {"--profile"}),
    ])
    def test_family_help_lists_its_flags(self, capsys, family, flags):
        code, out, _ = run_cli(capsys, "construct", family, "-h")
        assert code == 0
        assert set(re.findall(r"--[a-z-]+", out)) == flags | {"--help", "--out", "--format"}


class TestVerify:
    def test_good_word(self, capsys, tmp_path):
        g, part = complement_path_graph(2)
        gpath = write_graph(tmp_path, "g.graph", g, part)
        wpath = tmp_path / "w.txt"
        wpath.write_text("1 2 1' 2' 1' 1 2' 2\n")
        code, out, _ = run_cli(capsys, "verify", str(gpath), str(wpath))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_bad_word_exit_1(self, capsys, tmp_path):
        gpath = tmp_path / "k2.graph"
        gpath.write_text("vertices: 1 2\n1 2\n")
        wpath = tmp_path / "w.txt"
        wpath.write_text("1 1 2 2\n")
        code, out, _ = run_cli(capsys, "verify", str(gpath), str(wpath))
        assert code == 1
        payload = json.loads(out)
        assert payload["violations"][0]["x"] == "1"

    def test_alphabet_mismatch_exit_2(self, capsys, tmp_path):
        gpath = tmp_path / "k2.graph"
        gpath.write_text("vertices: 1 2\n1 2\n")
        wpath = tmp_path / "w.txt"
        wpath.write_text("1 2 3\n")
        code, _, err = run_cli(capsys, "verify", str(gpath), str(wpath))
        assert code == 2 and "error" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        gpath = tmp_path / "bad.graph"
        gpath.write_text("not a graph\n")
        wpath = tmp_path / "w.txt"
        wpath.write_text("1\n")
        code, _, _ = run_cli(capsys, "verify", str(gpath), str(wpath))
        assert code == 2

    def test_two_word_lines_exit_2(self, capsys, tmp_path):
        # P3 is represented by "a b a c"; a second line must not be ignored
        gpath = tmp_path / "p3.graph"
        gpath.write_text("vertices: a b c\na b\nb c\n")
        wpath = tmp_path / "w.txt"
        wpath.write_text("a b a c\nb b b\n")
        code, out, err = run_cli(capsys, "verify", str(gpath), str(wpath))
        assert code == 2 and out == "" and "one word line" in err


class TestRepresentable:
    def test_t1bar_negative(self, capsys, tmp_path):
        g, part = named_witness("T1bar")
        gpath = write_graph(tmp_path, "t1bar.graph", g, part)
        code, out, _ = run_cli(capsys, "representable", str(gpath))
        assert code == 1
        payload = json.loads(out)
        assert payload["representable"] is False
        assert payload["witnessSummary"]["acyclicOrientations"] == 1752

    def test_complete_graph_positive_with_extras(self, capsys, tmp_path):
        gpath = tmp_path / "k5.graph"
        labels = [str(i) for i in range(1, 6)]
        lines = ["vertices: " + " ".join(labels)]
        lines += [f"{a} {b}" for i, a in enumerate(labels) for b in labels[i + 1:]]
        gpath.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "representable", str(gpath), "--max-k", "3", "--max-walk", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["representable"] is True
        assert payload["representationNumber"] == 1
        assert payload["oddWalk"] is None

    def test_max_k_decides_a_negative_once(self, capsys, tmp_path, monkeypatch):
        # W5 has no semi-transitive orientation, so the verdict's decider
        # call also settles the representation number.
        calls = []
        decide = ori.find_semi_transitive_orientation
        monkeypatch.setattr(ori, "find_semi_transitive_orientation",
                            lambda *args: calls.append(args) or decide(*args))
        gpath = write_graph(tmp_path, "w5.graph", wheel5())
        code, out, _ = run_cli(capsys, "representable", str(gpath), "--max-k", "3")
        assert code == 1 and len(calls) == 1
        payload = json.loads(out)
        assert payload["representable"] is False and payload["representationNumber"] is None

    def test_max_k_decides_a_positive_once(self, capsys, tmp_path, monkeypatch):
        # C4 fails the 1-uniform search; the verdict has already found a
        # semi-transitive orientation, so the decider is not asked again.
        calls = []
        decide = ori.find_semi_transitive_orientation
        monkeypatch.setattr(ori, "find_semi_transitive_orientation",
                            lambda *args: calls.append(args) or decide(*args))
        c4 = Graph.from_edges("abcd", ["ab", "bc", "cd", "da"])
        gpath = write_graph(tmp_path, "c4.graph", c4)
        code, out, _ = run_cli(capsys, "representable", str(gpath), "--max-k", "3")
        assert code == 0 and len(calls) == 1
        payload = json.loads(out)
        assert payload["representable"] is True and payload["representationNumber"] == 2

    def test_max_k_on_an_empty_graph_exit_2_before_any_search(
            self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(ori, "find_semi_transitive_orientation",
                            lambda *args: calls.append(args))
        gpath = tmp_path / "empty.graph"
        gpath.write_text("vertices:\n")
        code, out, err = run_cli(capsys, "representable", str(gpath), "--max-k", "2")
        assert code == 2 and out == "" and calls == []
        assert err == "error: need at least one vertex\n"

    def test_edgeless_12_vertices_is_quick(self, capsys, tmp_path):
        # One acyclic orientation, whatever the number of linear orders.
        gpath = tmp_path / "empty12.graph"
        gpath.write_text("vertices: " + " ".join(f"v{i}" for i in range(12)) + "\n")
        with Budget("edgeless 12-vertex representable", 1):
            code, out, _ = run_cli(
                capsys, "representable", str(gpath), "--max-vertices", "12")
        assert code == 0
        assert json.loads(out)["representable"] is True

    @pytest.mark.parametrize("max_k", ["0", "-1"])
    def test_non_positive_max_k_exit_2(self, capsys, tmp_path, max_k):
        g, _ = complement_path_graph(2)
        gpath = write_graph(tmp_path, "cop4.graph", g)
        code, out, err = run_cli(capsys, "representable", str(gpath), "--max-k", max_k)
        assert code == 2 and out == "" and "--max-k" in err

    @pytest.mark.parametrize("max_walk", ["4", "3"])
    def test_bad_walk_bound_exit_2_before_any_search(self, capsys, tmp_path, monkeypatch,
                                                      max_walk):
        # The walk search needs an odd bound of at least 5; W5 is a
        # negative, so the decider and the orientation count would run first.
        def decide(*args):
            raise AssertionError("the decider ran")

        monkeypatch.setattr(ori, "find_semi_transitive_orientation", decide)
        gpath = write_graph(tmp_path, "w5.graph", wheel5())
        code, out, err = run_cli(capsys, "representable", str(gpath), "--max-walk", max_walk)
        assert code == 2 and out == "" and "--max-walk" in err

    def test_huge_walk_bound_is_quick(self, capsys, tmp_path):
        # A closed walk repeats no ordered pair, so P4's 3 edges allow 6 steps.
        g, _ = complement_path_graph(2)
        gpath = write_graph(tmp_path, "cop4.graph", g)
        with Budget("odd-walk search with a huge length bound", 1):
            code, out, _ = run_cli(
                capsys, "representable", str(gpath), "--max-walk", "2000001")
        assert code == 0
        assert json.loads(out)["oddWalk"] is None

    def test_k55_walk_search_is_quick(self, capsys, tmp_path):
        # Bipartite, so no odd closed walk: every length up to 2|E| = 50 is
        # tried, in polynomial work.
        left, right = [f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)]
        g = Graph.from_edges(left + right, [(a, b) for a in left for b in right])
        gpath = write_graph(tmp_path, "k55.graph", g)
        with Budget("K5,5 odd-walk search with bound 51", 1):
            code, out, _ = run_cli(capsys, "representable", str(gpath), "--max-walk", "51")
        assert code == 0
        assert json.loads(out)["oddWalk"] is None

    def test_max_k_above_the_word_search_cap_exit_2(self, capsys, tmp_path):
        g, part = named_witness("T1bar")
        gpath = write_graph(tmp_path, "t1bar.graph", g, part)
        code, out, err = run_cli(capsys, "representable", str(gpath), "--max-k", "2")
        assert code == 2 and out == "" and "cap of 6" in err

    def test_large_negative_skips_the_orientation_count(self, capsys, tmp_path):
        # T1bar first, then a 10-vertex path hanging off it: the pruned search
        # refutes every orientation of the first 7 vertices, and the 3^17-step
        # count is not run.
        t1bar, _ = named_witness("T1bar")
        path = [f"p{i}" for i in range(10)]
        edges = t1bar.edges() + [(t1bar.vertices[-1], path[0])]
        edges += list(zip(path, path[1:]))
        g = Graph.from_edges(t1bar.vertices + tuple(path), edges)
        gpath = write_graph(tmp_path, "t1bar-path.graph", g)
        with Budget("17-vertex T1bar-plus-path representable", 1):
            code, out, _ = run_cli(
                capsys, "representable", str(gpath), "--max-vertices", "30")
        assert code == 1
        payload = json.loads(out)
        assert payload["representable"] is False
        assert payload["witnessSummary"] == {"acyclicOrientations": None, "semiTransitive": 0}

    def test_cap_exit_2(self, capsys, tmp_path):
        g, part = named_witness("T1bar")
        gpath = write_graph(tmp_path, "t1bar.graph", g, part)
        code, _, _ = run_cli(
            capsys, "representable", str(gpath), "--max-vertices", "5")
        assert code == 2


class TestCharacterize:
    def test_co_c6_sweep(self, capsys, tmp_path):
        from wordrep.constructions import complement_cycle_graph

        g, part = complement_cycle_graph(3)
        gpath = write_graph(tmp_path, "coc6.graph", g, part)
        code, out, _ = run_cli(capsys, "characterize", str(gpath))
        assert code == 0
        payload = json.loads(out)
        assert payload["disagreements"] == []
        assert payload["semiTransitive"] > 0

    def test_requires_partition(self, capsys, tmp_path):
        g, _ = complement_path_graph(2)
        gpath = write_graph(tmp_path, "nopart.graph", g)
        code, _, err = run_cli(capsys, "characterize", str(gpath))
        assert code == 2 and "cliqueA" in err

    def test_rejects_bad_partition(self, capsys, tmp_path):
        gpath = tmp_path / "bad.graph"
        # cliqueA lists {a, c} but a-c is not an edge
        gpath.write_text("vertices: a b c\ncliqueA: a c\ncliqueB: b\na b\nb c\n")
        code, _, _ = run_cli(capsys, "characterize", str(gpath))
        assert code == 2

    def test_workers_accepts_only_one(self, capsys, tmp_path):
        # The sweep runs in one process; --workers 1 still parses, for
        # command lines that pass it, and the payload has no workers key.
        g, part = complement_path_graph(2)
        gpath = write_graph(tmp_path, "cop4.graph", g, part)
        code, out, err = run_cli(capsys, "characterize", str(gpath), "--workers", "2")
        assert code == 2 and out == "" and "--workers" in err
        code, out, _ = run_cli(capsys, "characterize", str(gpath), "--workers", "1")
        assert code == 0
        payload = json.loads(out)
        assert "workers" not in payload and payload["semiTransitive"] > 0

    def test_full_sweep_past_the_count_cap_exit_2(self, capsys, tmp_path):
        # 15 vertices: 15! orders lie under the threshold, so the sweep would
        # be full, and its orientation count has no answer above 14 vertices.
        a, b = [f"a{i}" for i in range(7)], [f"b{i}" for i in range(8)]
        edges = [(x, y) for side in (a, b) for i, x in enumerate(side) for y in side[i + 1:]]
        g = Graph.from_edges(a + b, edges + [("a0", "b0")])
        part = graphs.CoBipartitePartition(tuple(a), tuple(b))
        gpath = write_graph(tmp_path, "big.graph", g, part)
        with Budget("full sweep past the count cap", 5):
            code, out, err = run_cli(capsys, "characterize", str(gpath), "--max-vertices", "15",
                                     "--sample-threshold", str(10 ** 13))
        assert code == 2 and out == "" and "at most 14 vertices" in err

    @pytest.mark.parametrize("threshold", ["0", "-3"])
    def test_non_positive_sample_threshold_exit_2(self, capsys, tmp_path, threshold):
        g, part = named_witness("T1bar")
        gpath = write_graph(tmp_path, "t1bar.graph", g, part)
        code, out, err = run_cli(
            capsys, "characterize", str(gpath), "--sample-threshold", threshold)
        assert code == 2 and out == "" and "--sample-threshold" in err

    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_negative_seed_exit_2(self, capsys, tmp_path, seed):
        # Random seeds from abs(seed): --seed -5 would draw the orders of
        # --seed 5 and report a different seed.
        g, part = named_witness("T1bar")
        gpath = write_graph(tmp_path, "t1bar.graph", g, part)
        code, out, err = run_cli(capsys, "characterize", str(gpath), "--seed", seed,
                                 "--sample-threshold", "100")
        assert code == 2 and out == "" and "--seed" in err


NOT_UTF8 = b"\xff\xfe\x00bad"


class TestFileEncoding:
    @pytest.mark.parametrize("command", ["representable", "characterize", "verify"])
    def test_non_utf8_graph_file_exit_2(self, capsys, tmp_path, command):
        gpath = tmp_path / "bin.graph"
        gpath.write_bytes(NOT_UTF8)
        wpath = tmp_path / "w.txt"
        wpath.write_text("1 2\n")
        argv = [command, str(gpath)] + ([str(wpath)] if command == "verify" else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {gpath}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_non_utf8_word_file_exit_2(self, capsys, tmp_path):
        gpath = tmp_path / "k2.graph"
        gpath.write_text("vertices: 1 2\n1 2\n")
        wpath = tmp_path / "w.txt"
        wpath.write_bytes(b"1 2 " + NOT_UTF8)
        code, out, err = run_cli(capsys, "verify", str(gpath), str(wpath))
        assert code == 2 and out == ""
        assert err == f"error: {wpath}: not UTF-8 text (invalid start byte at byte 4)\n"

    def test_word_file_is_utf8_under_an_ascii_locale(self, tmp_path):
        # Without UTF-8 mode, argv holds the label's bytes as surrogates.
        env = {**os.environ, "PYTHONPATH": str(Path(graphs.__file__).parents[1]),
               "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        done = subprocess.run(
            [sys.executable, "-m", "wordrep.cli", "construct", "cobip-k2", "--profile",
             "\u00e9:N1", "--out", "w.txt"], cwd=tmp_path, env=env, capture_output=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "w.txt").read_bytes() == "1 2 \u00e9 1 \u00e9 2\n".encode()


class TestCatalog:
    def test_deterministic_and_complete(self, capsys, tmp_path):
        out1 = tmp_path / "c1"
        out2 = tmp_path / "c2"
        code, _, _ = run_cli(capsys, "catalog", "--out", str(out1))
        assert code == 0
        code, _, _ = run_cli(capsys, "catalog", "--out", str(out2))
        assert code == 0
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        entries = {item["name"]: item for item in manifest["files"]}
        assert entries["t1bar.graph"]["vertices"] == 7
        assert entries["t1bar.graph"]["edges"] == 15
        assert "crown-n3-k0.graph" in entries

    def test_family_filter_with_range(self, capsys, tmp_path):
        out_dir = tmp_path / "crowns"
        code, _, _ = run_cli(
            capsys, "catalog", "--out", str(out_dir), "crown", "--n", "2..5")
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir() if p.suffix == ".graph")
        expected = sorted(
            f"crown-n{n}-k{k}.graph" for n in range(2, 6) for k in range(n))
        assert names == expected

    @pytest.mark.parametrize("family", [[], ["t1bar"], ["t2bar"]])
    def test_n_without_a_sized_family_exit_2(self, capsys, tmp_path, family):
        out_dir = tmp_path / "cat"
        code, out, err = run_cli(
            capsys, "catalog", "--out", str(out_dir), *family, "--n", "3")
        # With no family named, argparse takes the "3" for the family.
        message = "unrecognized arguments: --n 3" if family else "invalid choice: '3'"
        assert code == 2 and out == "" and message in err
        assert not out_dir.exists()

    def test_k_with_a_non_crown_family_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "cat"
        for family in ("t1bar", "t2bar", "g1bar", "complement-path", "complement-cycle"):
            code, out, err = run_cli(
                capsys, "catalog", "--out", str(out_dir), family, "--k", "1")
            assert code == 2 and out == "" and "unrecognized arguments: --k 1" in err
            assert not out_dir.exists()

    @pytest.mark.parametrize("family, flags", [
        ([], {"--out"}),
        (["t1bar"], set()),
        (["t2bar"], set()),
        (["g1bar"], {"--n"}),
        (["complement-path"], {"--n"}),
        (["complement-cycle"], {"--n"}),
        (["crown"], {"--n", "--k"}),
    ])
    def test_family_help_lists_its_flags(self, capsys, family, flags):
        code, out, _ = run_cli(capsys, "catalog", *family, "-h")
        assert code == 0
        assert set(re.findall(r"--[a-z-]+", out)) == flags | {"--help"}

    def test_usage_marks_the_family_optional(self, capsys):
        # A bare catalog writes every family.
        code, out, _ = run_cli(capsys, "catalog", "-h")
        assert code == 0
        assert out.splitlines()[0] == "usage: wordrep catalog [-h] [--out DIR] [family ...]"

    @pytest.mark.parametrize("flag", [["--n", "x"], ["--k", "1..y"], ["--k", ""]])
    def test_non_integer_range_exit_2(self, capsys, tmp_path, flag):
        out_dir = tmp_path / "cat"
        code, out, err = run_cli(
            capsys, "catalog", "--out", str(out_dir), "crown", *flag)
        assert code == 2 and out == "" and "is not N or N..M" in err
        assert not out_dir.exists()

    def test_empty_selection_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "cat"
        code, out, err = run_cli(
            capsys, "catalog", "--out", str(out_dir), "crown", "--k", "7")
        assert code == 2 and out == "" and "no catalog graph" in err
        assert not out_dir.exists()

    def test_huge_k_range_is_clamped(self, capsys, tmp_path):
        with Budget("crown --k 0..10**12", 1):
            code, _, _ = run_cli(capsys, "catalog", "--out", str(tmp_path / "huge"),
                                 "crown", "--n", "2", "--k", f"0..{10**12}")
        assert code == 0
        run_cli(capsys, "catalog", "--out", str(tmp_path / "small"),
                "crown", "--n", "2", "--k", "0..1")
        files = sorted(p.name for p in (tmp_path / "small").iterdir())
        assert sorted(p.name for p in (tmp_path / "huge").iterdir()) == files
        for name in files:
            assert (tmp_path / "huge" / name).read_bytes() == (
                tmp_path / "small" / name).read_bytes()

    def test_huge_n_range_fails_fast(self, capsys, tmp_path):
        out_dir = tmp_path / "cat"
        with Budget("complement-path --n 1..10**12", 1):
            code, out, err = run_cli(capsys, "catalog", "--out", str(out_dir),
                                     "complement-path", "--n", f"1..{10**12}")
        assert code == 2 and out == "" and "too many vertices" in err
        assert not out_dir.exists()

    def test_catalog_graphs_parse_back(self, capsys, tmp_path):
        from wordrep.graphs import parse_graph_text

        out_dir = tmp_path / "cat"
        run_cli(capsys, "catalog", "--out", str(out_dir))
        for path in out_dir.glob("*.graph"):
            g, part = parse_graph_text(path.read_text())
            assert part is not None
            part.validate(g)

    def test_manifest_digests_are_the_written_bytes(self, capsys, tmp_path):
        out_dir = tmp_path / "cat"
        code, out, _ = run_cli(capsys, "catalog", "--out", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())["files"]
        assert manifest == json.loads(out)["files"]
        assert sorted(item["name"] for item in manifest) == sorted(
            p.name for p in out_dir.glob("*.graph"))
        for item in manifest:
            digest = hashlib.sha256((out_dir / item["name"]).read_bytes()).hexdigest()
            assert item["sha256"] == digest, item["name"]


class TestParser:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv, message", [
        (["verify", "g.graph", "w.txt"], "unrecognized arguments: --format text"),
        (["representable", "g.graph"], "unrecognized arguments: --format text"),
        (["characterize", "g.graph"], "unrecognized arguments: --format text"),
        (["catalog", "--out", "cat"], "invalid choice: 'text'"),
        (["catalog", "--out", "cat", "crown"], "unrecognized arguments: --format text"),
    ], ids=["verify", "representable", "characterize", "catalog", "catalog-crown"])
    def test_format_is_only_a_construct_option(
            self, capsys, tmp_path, monkeypatch, argv, message):
        # Every other command prints its JSON payload and nothing else.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--format", "text")
        assert code == 2 and out == "" and message in err
        assert not (tmp_path / "cat").exists()

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [argv for argv in commands if argv]
        assert len(commands) >= 8 and all(argv[0] == "wordrep" for argv in commands)
        for argv in commands:
            try:
                build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")

    def test_usage_errors_leave_the_parser_reusable(self, capsys, tmp_path):
        g, part = named_witness("T1bar")
        gpath = write_graph(tmp_path, "t1bar.graph", g, part)
        code, out, err = run_cli(capsys, "representable", str(gpath), "--no-such-flag")
        assert code == 2 and out == "" and "unrecognized arguments: --no-such-flag" in err
        code, _, err = run_cli(capsys, "characterize", str(gpath), "--workers", "0")
        assert code == 2 and "--workers" in err
        code, out, _ = run_cli(capsys, "representable", str(gpath))
        assert code == 1
        payload = json.loads(out)
        assert payload["representable"] is False
        assert payload["witnessSummary"]["acyclicOrientations"] == 1752
        code, out, _ = run_cli(capsys, "characterize", str(gpath))
        assert code == 0
        payload = json.loads(out)
        assert "workers" not in payload and payload["semiTransitive"] == 0
