import pytest

from agony.cli import main

TOY = "a b\nb c\nc a 2\nb d\n"
TWO_CLUSTERS = "a c\nc d\nd b\nb a\ni a\nf e\ne g\ng f\ng h\ne h\na e\n"
R1 = "a 0\nb 1\nc 2\nd 3\ne 1\nf 0\ng 1\nh 2\ni 0\n"


@pytest.fixture
def toy(tmp_path):
    p = tmp_path / "toy.txt"
    p.write_text(TOY)
    return str(p)


def _one_line_error(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def _summary(err):
    out = {}
    for line in err.splitlines():
        if "=" in line and not line.startswith(("note:", "warning:")):
            key, val = line.split("=", 1)
            out[key] = val
    return out


class TestExact:
    def test_toy_default_flags(self, toy, capsys):
        assert main(["exact", toy]) == 0
        cap = capsys.readouterr()
        info = _summary(cap.err)
        assert info["n"] == "4" and info["m"] == "4" and info["k"] == "4"
        assert info["score"] == "3" and info["scc"] == "1"
        ranking = dict(line.split("\t") for line in cap.out.splitlines())
        assert set(ranking) == {"a", "b", "c", "d"}

    def test_small_k_disables_scc_with_notice(self, toy, capsys):
        assert main(["exact", toy, "--k", "2"]) == 0
        cap = capsys.readouterr()
        assert "disables the SCC decomposition" in cap.err
        info = _summary(cap.err)
        assert info["scc"] == "0" and info["k"] == "2" and info["score"] == "3"

    def test_canonical_dag_equals_peeling(self, tmp_path, capsys):
        p = tmp_path / "dag.txt"
        p.write_text("a b\nb c\na c\n")
        assert main(["exact", str(p), "--canonical"]) == 0
        cap = capsys.readouterr()
        ranking = dict(line.split("\t") for line in cap.out.splitlines())
        assert ranking == {"a": "0", "b": "1", "c": "2"}

    def test_out_file_roundtrips_through_score(self, toy, tmp_path, capsys):
        out = tmp_path / "ranks.tsv"
        assert main(["exact", toy, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["score", toy, str(out)]) == 0
        cap = capsys.readouterr()
        assert cap.out.strip() == "3"

    def test_baseline_solver_flag(self, toy, capsys):
        assert main(["exact", toy, "--solver", "baseline"]) == 0
        assert _summary(capsys.readouterr().err)["score"] == "3"

    def test_deterministic_output(self, toy, capsys):
        main(["exact", toy])
        first = capsys.readouterr().out
        main(["exact", toy])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_file_exits_2(self, capsys):
        assert main(["exact", "/nonexistent/graph.txt"]) == 2

    def test_empty_input_is_fine(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("")
        assert main(["exact", str(p)]) == 0
        info = _summary(capsys.readouterr().err)
        assert info["n"] == "0" and info["score"] == "0"

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("a b c d e\n")
        assert main(["exact", str(p)]) == 2

    def test_non_utf8_edge_list_exits_2(self, tmp_path, capsys):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"a b\n\xe9t\xe9 b\n")
        assert main(["exact", str(p)]) == 2
        assert _one_line_error(capsys.readouterr().err)

    def test_nonpositive_k_exits_2(self, toy, capsys):
        assert main(["exact", toy, "--k", "0"]) == 2
        assert main(["heuristic", toy, "--k", "-3"]) == 2

    def test_scoring_only_penalty_exits_3(self, toy, capsys):
        assert main(["exact", toy, "--penalty", "const"]) == 3

    def test_convex_penalty_flag(self, toy, capsys):
        assert main(["exact", toy, "--penalty", "sum:1,-1;2,3"]) == 0
        info = _summary(capsys.readouterr().err)
        assert info["penalty"].startswith("sum:")

    def test_dump_state_flag(self, toy, tmp_path, capsys):
        dump = tmp_path / "state.txt"
        assert main(["exact", toy, "--no-scc", "--dump-state", str(dump)]) == 0
        lines = dump.read_text().splitlines()
        assert any(l.startswith("arc ") for l in lines)
        assert any(l.startswith("dual ") for l in lines)


class TestHeuristic:
    def test_scc_variant_on_dag_scores_zero(self, tmp_path, capsys):
        p = tmp_path / "dag.txt"
        p.write_text("a b\nb c\nc d\na d\n")
        assert main(["heuristic", str(p), "--variant", "scc"]) == 0
        assert _summary(capsys.readouterr().err)["score"] == "0"

    def test_plain_k2_matches_exact_k2(self, toy, capsys):
        assert main(["heuristic", toy, "--k", "2", "--variant", "plain"]) == 0
        heur = _summary(capsys.readouterr().err)["score"]
        assert main(["exact", toy, "--k", "2"]) == 0
        exact = _summary(capsys.readouterr().err)["score"]
        assert heur == exact

    def test_best_variant_not_worse(self, toy, capsys):
        scores = {}
        for variant in ("plain", "scc", "best"):
            assert main(["heuristic", toy, "--variant", variant]) == 0
            scores[variant] = int(_summary(capsys.readouterr().err)["score"])
        assert scores["best"] == min(scores.values())


class TestScore:
    def test_two_cluster_scores(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text(TWO_CLUSTERS)
        r = tmp_path / "r.txt"
        r.write_text(R1)
        assert main(["score", str(g), str(r)]) == 0
        assert capsys.readouterr().out.strip() == "9"
        assert main(["score", str(g), str(r), "--penalty", "const"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_missing_vertex_exits_4_and_names_it(self, toy, tmp_path, capsys):
        r = tmp_path / "r.txt"
        r.write_text("a 0\nb 1\nc 2\n")  # d missing
        assert main(["score", toy, str(r)]) == 4
        assert "'d'" in capsys.readouterr().err

    def test_non_utf8_ranking_exits_2(self, toy, tmp_path, capsys):
        r = tmp_path / "r.txt"
        r.write_bytes(b"a 0\nb 1\nc 2\nd \xff\n")
        assert main(["score", toy, str(r)]) == 2
        assert _one_line_error(capsys.readouterr().err)

    def test_extra_labels_warn_but_score(self, toy, tmp_path, capsys):
        r = tmp_path / "r.txt"
        r.write_text("a 1\nb 0\nc 0\nd 1\nzzz 9\n")
        assert main(["score", toy, str(r)]) == 0
        cap = capsys.readouterr()
        assert cap.out.strip() == "3"
        assert "warning" in cap.err


class TestBench:
    def test_manifest_run(self, toy, tmp_path, capsys):
        manifest = tmp_path / "bench.txt"
        manifest.write_text(f"toy {toy}\nmissing /nope/missing.txt\n")
        assert main(["bench", str(manifest)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "dataset\tmethod\tscore\tratio\ttime_s"
        rows = [line.split("\t") for line in out[1:]]
        by = {(r[0], r[1]): r for r in rows}
        assert by[("toy", "exact")][2] == "3"
        assert by[("toy", "exact")][3] == "1.000"
        assert float(by[("toy", "scc")][3]) >= 1.0
        assert ("missing", "-") in by and by[("missing", "-")][2] == "skipped"

    def test_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "bench.txt"
        manifest.write_text("# nothing\n")
        assert main(["bench", str(manifest)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1  # header only

    def test_manifest_with_k_and_methods(self, toy, tmp_path, capsys):
        manifest = tmp_path / "bench.txt"
        manifest.write_text(f"toy {toy} k=2 methods=exact,plain\n")
        assert main(["bench", str(manifest)]) == 0
        rows = [l.split("\t") for l in capsys.readouterr().out.splitlines()[1:]]
        assert {r[1] for r in rows} == {"exact", "plain"}
        assert all(r[2] == "3" for r in rows)  # plain at k=2 is optimal

    @pytest.mark.parametrize(
        "line", ["onlyname", "x {toy} k=abc", "x {toy} k=0"], ids=["no-path", "k-abc", "k-0"]
    )
    def test_malformed_manifest_line_exits_2(self, toy, tmp_path, capsys, line):
        manifest = tmp_path / "bench.txt"
        manifest.write_text(f"toy {toy}\n" + line.format(toy=toy) + "\n")
        assert main(["bench", str(manifest)]) == 2
        cap = capsys.readouterr()
        assert _one_line_error(cap.err) and "line 2" in cap.err
        assert cap.out == ""  # checked before anything runs

    def test_non_utf8_manifest_exits_2(self, toy, tmp_path, capsys):
        manifest = tmp_path / "bench.txt"
        manifest.write_bytes(f"toy {toy}\n".encode() + b"\xc3\x28 g.txt\n")
        assert main(["bench", str(manifest)]) == 2
        assert _one_line_error(capsys.readouterr().err)
