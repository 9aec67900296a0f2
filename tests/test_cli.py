"""Tests for the command-line interface (``python -m repro``)."""

import pytest

from repro.cli import main
from repro.graph import figure2_graph, instance_to_edge_list


@pytest.fixture
def graph_file(tmp_path):
    instance, _ = figure2_graph()
    path = tmp_path / "figure2.edges"
    path.write_text(instance_to_edge_list(instance), encoding="utf-8")
    return str(path)


class TestEval:
    def test_eval_prints_answers(self, graph_file, capsys):
        assert main(["eval", graph_file, "o1", "a b*"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sorted(out) == ["o2", "o3"]

    def test_eval_stats_on_stderr(self, graph_file, capsys):
        assert main(["eval", graph_file, "o1", "a b*", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "visited pairs" in err

    def test_missing_graph_file(self, capsys):
        assert main(["eval", "/nonexistent/file", "o1", "a"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_query_syntax(self, graph_file, capsys):
        assert main(["eval", graph_file, "o1", "(a"]) == 2
        assert "error" in capsys.readouterr().err


class TestCheck:
    def test_holding_constraints_exit_zero(self, graph_file, capsys):
        assert main(["check", graph_file, "o1", "a b b = a", "a b <= a b*"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_violated_constraint_exits_one(self, graph_file, capsys):
        assert main(["check", graph_file, "o1", "a = a b"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestImplies:
    def test_implied(self, capsys):
        code = main(["implies", "l* = l + %", "-c", "l l <= l"])
        assert code == 0
        assert "implied" in capsys.readouterr().out

    def test_not_implied(self, capsys):
        code = main(["implies", "l <= l l", "-c", "l l <= l"])
        assert code == 1
        assert "not-implied" in capsys.readouterr().out

    def test_no_constraints_language_reasoning(self, capsys):
        assert main(["implies", "a b <= a (b + c)"]) == 0


class TestRewrite:
    def test_rewrite_with_cached_label(self, capsys):
        code = main(
            [
                "rewrite",
                "a (b a)* c",
                "-c",
                "l = (a b)*",
                "--cached",
                "l",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "l a c"

    def test_rewrite_without_improvement_exits_one(self, capsys):
        assert main(["rewrite", "a b", "-c", "x = y"]) == 1
        assert capsys.readouterr().out.strip() == "a b"

    def test_verbose_lists_candidates(self, capsys):
        main(["rewrite", "l*", "-c", "l l = l", "--verbose"])
        captured = capsys.readouterr()
        assert "original" in captured.err

    def test_verbose_says_what_justified_the_rewrite(self, capsys):
        assert main(["rewrite", "a b c", "-c", "a b = d", "-v"]) == 0
        assert (
            "# generated=1 origin=prefix-substitution via a b = d premises=a b = d"
            in capsys.readouterr().err
        )
        assert main(["rewrite", "a b", "-c", "x = y", "-v"]) == 1
        assert "# generated=0 origin=- premises=-" in capsys.readouterr().err


class TestDistributed:
    def test_distributed_run(self, graph_file, capsys):
        assert main(["distributed", graph_file, "o1", "a b*", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "answers: ['o2', 'o3']" in out
        assert "terminated: True" in out
        assert "subquery(" in out

    def test_module_entry_point(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "implies", "a <= a + b"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "implied" in completed.stdout
