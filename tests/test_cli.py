import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agony.circulation import SolverError
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
        assert int(info["augmentations"]) > 0 and int(info["settles"]) > 0
        assert int(info["repairs"]) >= 0
        ranking = dict(line.split("\t") for line in cap.out.splitlines())
        assert set(ranking) == {"a", "b", "c", "d"}

    def test_small_k_disables_scc_with_notice(self, toy, capsys):
        assert main(["exact", toy, "--k", "2"]) == 0
        info = _summary(capsys.readouterr().err)
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

    @pytest.mark.parametrize("stage", ["min_agony", "canonical_ranking"])
    def test_solver_error_exits_1(self, toy, capsys, monkeypatch, stage):
        def broken(*args, **kwargs):
            raise SolverError("invariant broken")

        monkeypatch.setattr(f"agony.cli.{stage}", broken)
        assert main(["exact", toy, "--canonical"]) == 1
        err = capsys.readouterr().err
        assert _one_line_error(err) and "invariant broken" in err

    def test_scoring_only_penalty_exits_3(self, toy, capsys):
        assert main(["exact", toy, "--penalty", "const"]) == 3

    def test_zero_denominator_penalty_exits_2(self, toy, tmp_path, capsys):
        r = tmp_path / "r.txt"
        r.write_text("a 0\nb 1\nc 2\nd 3\n")
        assert main(["exact", toy, "--penalty", "sum:1/0,1"]) == 2
        assert _one_line_error(capsys.readouterr().err)
        assert main(["score", toy, str(r), "--penalty", "sum:1/0,1"]) == 2
        assert _one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "slope", ["9" * 4300, "1e20000", "1e5000", "1e-5000"],
        ids=["4300-nines", "1e20000", "1e5000", "1e-5000"],
    )
    def test_huge_penalty_number_exits_2(self, toy, tmp_path, capsys, slope):
        # a score or penalty with too many digits to print, or an exponent
        # that the parser refuses before it builds the number
        r = tmp_path / "r.txt"
        r.write_text("a 0\nb 1\nc 2\nd 3\n")
        for argv in (["exact", toy], ["score", toy, str(r)]):
            assert main([*argv, "--penalty", f"sum:{slope},-1"]) == 2
            cap = capsys.readouterr()
            assert _one_line_error(cap.err) and cap.out == ""

    @pytest.mark.parametrize(
        "penalty", ["sum:1e" + "9" * 5000 + ",-1", "sum:1," + "9" * 5000, "sum:" + "9" * 5000 + ",-1"],
        ids=["5000-digit-exponent", "5000-digit-breakpoint", "5000-digit-slope"],
    )
    def test_overlong_penalty_number_exits_2_naming_no_interpreter_setting(
        self, toy, tmp_path, capsys, penalty
    ):
        r = tmp_path / "r.txt"
        r.write_text("a 0\nb 1\nc 2\nd 3\n")
        for argv in (["exact", toy], ["score", toy, str(r)]):
            assert main([*argv, "--penalty", penalty]) == 2
            cap = capsys.readouterr()
            assert _one_line_error(cap.err) and cap.out == ""
            assert "sys." not in cap.err and len(cap.err) < 120

    @pytest.mark.parametrize(
        "text, flags", [(TOY, ["--k", "1"]), ("a b\nb a\n", [])], ids=["toy-k1", "two-cycle"]
    )
    def test_penalty_too_long_to_describe_is_echoed_as_given(self, tmp_path, capsys, text, flags):
        # 1e-4300 has a 4301-digit denominator, one more digit than str
        # converts; both scores here have 4300-digit denominators
        graph, ranks = tmp_path / "g.txt", tmp_path / "r.txt"
        graph.write_text(text)
        penalty = "sum:1e-4300,-1"
        assert main(["exact", str(graph), *flags, "--penalty", penalty, "--out", str(ranks)]) == 0
        info = _summary(capsys.readouterr().err)
        assert info["penalty"] == penalty
        assert main(["score", str(graph), str(ranks), "--penalty", penalty]) == 0
        assert info["score"] == capsys.readouterr().out.strip()

    def test_ranking_file_kept_when_the_score_is_too_long_to_print(self, toy, tmp_path, capsys):
        # the toy optimum under slope 1e-4300 has a denominator of more than
        # 4300 digits, so the summary fails after the solve
        ranks, linear = tmp_path / "r.txt", tmp_path / "linear.txt"
        assert main(["exact", toy, "--penalty", "sum:1e-4300,-1", "--out", str(ranks)]) == 2
        cap = capsys.readouterr()
        assert _one_line_error(cap.err) and "too many digits" in cap.err and cap.out == ""
        # a positive slope scales every score alike, so the optimum is the linear one
        assert main(["exact", toy, "--out", str(linear)]) == 0
        assert ranks.read_text() == linear.read_text() != ""

    def test_convex_penalty_flag(self, toy, capsys):
        assert main(["exact", toy, "--penalty", "sum:1,-1;2,3"]) == 0
        info = _summary(capsys.readouterr().err)
        assert info["penalty"].startswith("sum:")

    @pytest.mark.parametrize("flags", [[], ["--k", "10"]], ids=["scc", "global"])
    def test_steep_penalty_widens_the_rank_window(self, tmp_path, capsys, flags):
        # breakpoint -3: the edge is free only with its head 3 ranks above
        p = tmp_path / "edge.txt"
        p.write_text("a b\n")
        assert main(["exact", str(p), "--penalty", "sum:1,-3", *flags]) == 0
        cap = capsys.readouterr()
        info = _summary(cap.err)
        assert info["score"] == "0" and info["k"] == "4"
        assert cap.out == "a\t0\nb\t3\n"


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


class TestOut:
    @pytest.mark.parametrize("command", ["exact", "heuristic"])
    @pytest.mark.parametrize("target", ["missing/x.tsv", "."], ids=["no-dir", "is-dir"])
    def test_unwritable_out_exits_2(self, toy, tmp_path, capsys, command, target):
        assert main([command, toy, "--out", str(tmp_path / target)]) == 2
        cap = capsys.readouterr()
        assert _one_line_error(cap.err) and "cannot write" in cap.err
        assert cap.out == ""


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

    def test_score_too_long_to_print_exits_2(self, tmp_path, capsys):
        # a 2-cycle of 4300-digit weights scores twice the weight, 4301 digits
        big = "9" * 4300
        graph, manifest = tmp_path / "big.txt", tmp_path / "bench.txt"
        graph.write_text(f"a b {big}\nb a {big}\n")
        manifest.write_text(f"big {graph}\n")
        assert main(["bench", str(manifest)]) == 2
        cap = capsys.readouterr()
        assert _one_line_error(cap.err) and "too many digits" in cap.err
        assert "Traceback" not in cap.err

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


# CLI fuzzing: generated file contents and flag values, every call must end
# in a documented exit code.
_LABEL = st.sampled_from("abcdef")
_NUM = st.one_of(st.integers(-3, 12), st.integers(-10**12, 10**12)).map(str)
_JUNK = st.text(st.characters(codec="utf-8"), max_size=6)
_SLOPE = st.one_of(
    _NUM,
    st.builds("{}/{}".format, st.integers(-2, 9), st.integers(0, 4)),
    st.builds("{}.{}".format, st.integers(0, 3), st.integers(0, 99)),
    st.builds(
        "{}{}{}".format,
        _NUM,
        st.sampled_from("eE"),
        st.one_of(st.integers(-6, 6), st.integers(-10**10, 10**10)),
    ),
)
_PENALTY = st.one_of(
    st.sampled_from(["linear", "const", "constant"]),
    st.lists(
        st.builds("{},{}".format, _SLOPE, st.one_of(st.integers(-4, 4).map(str), _JUNK)),
        max_size=3,
    ).map(lambda terms: "sum:" + ";".join(terms)),
    _JUNK.map("sum:{}".format),
    _JUNK,
)


def _contents(line):
    text = st.lists(st.one_of(line, st.just("# comment"), _JUNK), max_size=10).map("\n".join)
    return st.one_of(text.map(str.encode), st.binary(max_size=24))


_EDGES = _contents(
    st.one_of(
        st.builds("{} {}".format, _LABEL, _LABEL),
        st.builds("{} {} {}".format, _LABEL, _LABEL, _NUM),
        st.lists(st.one_of(_LABEL, _NUM), max_size=4).map(" ".join),
    )
)
_RANKS = _contents(st.builds("{} {}".format, _LABEL, st.one_of(_NUM, _JUNK)))
_OPTION = st.one_of(
    st.integers(-2, 12).map("k={}".format),
    st.lists(st.sampled_from(["exact", "plain", "scc", "best", "x"]), min_size=1, max_size=3)
    .map(lambda ms: "methods=" + ",".join(ms)),
    _JUNK,
)
_MANIFEST = _contents(
    st.builds(
        lambda name, path, opts: " ".join([name, path, *opts]),
        _LABEL,
        st.sampled_from(["{graph}", "{dir}/missing.txt", "{dir}"]),
        st.lists(_OPTION, max_size=2),
    )
)
_K = st.one_of(st.none(), st.integers(-2, 12), st.integers(10**6, 10**9))


def _argv(draw, paths):
    command = draw(st.sampled_from(["exact", "exact", "heuristic", "score", "bench"]))
    k = draw(_K)
    k_flag = [] if k is None else ["--k", str(k)]
    if command == "exact":
        extra = [f"--penalty={draw(_PENALTY)}"]
        if draw(st.booleans()):
            extra.append("--canonical")
        return ["exact", paths["graph"], *k_flag, *extra]
    if command == "heuristic":
        variant = draw(st.sampled_from(["plain", "scc", "best"]))
        return ["heuristic", paths["graph"], *k_flag, "--variant", variant]
    if command == "score":
        return ["score", paths["graph"], paths["ranks"], f"--penalty={draw(_PENALTY)}"]
    return ["bench", paths["manifest"]]


@given(st.data(), _EDGES, _RANKS, _MANIFEST)
@settings(max_examples=400, deadline=None)
def test_fuzzed_inputs_never_traceback(data, edges, ranks, manifest):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp, name)) for name in ("graph", "ranks", "manifest")}
        Path(paths["graph"]).write_bytes(edges)
        Path(paths["ranks"]).write_bytes(ranks)
        manifest = manifest.replace(b"{graph}", paths["graph"].encode())
        Path(paths["manifest"]).write_bytes(manifest.replace(b"{dir}", tmp.encode()))
        argv = _argv(data.draw, paths)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), argv
