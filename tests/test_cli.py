"""Command-line behavior: envelopes, exit codes, determinism."""

import json

import pytest

from wordrep.cli import main
from wordrep.graphs import format_graph_text, named_witness
from wordrep.constructions import complement_path_graph

from test_acceptance import Budget


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

    def test_missing_n_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "complement-path")
        assert code == 2


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
        assert payload["witnessSummary"]["acyclicOrientations"] > 0

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

    def test_huge_walk_bound_is_quick(self, capsys, tmp_path):
        # A closed walk repeats no ordered pair, so P4's 3 edges allow 6 steps.
        g, _ = complement_path_graph(2)
        gpath = write_graph(tmp_path, "cop4.graph", g)
        with Budget("odd-walk search with a huge length bound", 1):
            code, out, _ = run_cli(
                capsys, "representable", str(gpath), "--max-walk", "2000001")
        assert code == 0
        assert json.loads(out)["oddWalk"] is None

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

    def test_worker_determinism(self, capsys, tmp_path):
        g, part = complement_path_graph(2)
        gpath = write_graph(tmp_path, "cop4.graph", g, part)
        code1, out1, _ = run_cli(capsys, "characterize", str(gpath), "--workers", "1")
        code2, out2, _ = run_cli(capsys, "characterize", str(gpath), "--workers", "2")
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        a.pop("workers"), b.pop("workers")
        assert a == b

    @pytest.mark.parametrize("threshold", ["0", "-3"])
    def test_non_positive_sample_threshold_exit_2(self, capsys, tmp_path, threshold):
        g, part = named_witness("T1bar")
        gpath = write_graph(tmp_path, "t1bar.graph", g, part)
        code, out, err = run_cli(
            capsys, "characterize", str(gpath), "--sample-threshold", threshold)
        assert code == 2 and out == "" and "--sample-threshold" in err


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
            capsys, "catalog", "--out", str(out_dir), "--family", "crown",
            "--n", "2..5")
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir() if p.suffix == ".graph")
        expected = sorted(
            f"crown-n{n}-k{k}.graph" for n in range(2, 6) for k in range(n))
        assert names == expected

    @pytest.mark.parametrize("family", [[], ["--family", "t1bar"], ["--family", "t2bar"]])
    def test_n_without_a_sized_family_exit_2(self, capsys, tmp_path, family):
        out_dir = tmp_path / "cat"
        code, out, err = run_cli(
            capsys, "catalog", "--out", str(out_dir), "--n", "3", *family)
        assert code == 2 and out == "" and "--n" in err
        assert not out_dir.exists()

    def test_k_with_a_non_crown_family_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "cat"
        code, out, err = run_cli(
            capsys, "catalog", "--out", str(out_dir), "--family", "g1bar", "--k", "1")
        assert code == 2 and out == "" and "--k" in err
        assert not out_dir.exists()

    def test_empty_selection_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "cat"
        code, out, err = run_cli(
            capsys, "catalog", "--out", str(out_dir), "--family", "crown", "--k", "7")
        assert code == 2 and out == "" and "no catalog graph" in err
        assert not out_dir.exists()

    def test_catalog_graphs_parse_back(self, capsys, tmp_path):
        from wordrep.graphs import parse_graph_text

        out_dir = tmp_path / "cat"
        run_cli(capsys, "catalog", "--out", str(out_dir))
        for path in out_dir.glob("*.graph"):
            g, part = parse_graph_text(path.read_text())
            assert part is not None
            part.validate(g)
