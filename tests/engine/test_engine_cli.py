"""Tests for the ``engine`` CLI subcommand (batch query files)."""

import pytest

from repro.cli import main
from repro.engine import Engine
from repro.exceptions import ReproError
from repro.graph import figure2_graph, instance_to_edge_list


@pytest.fixture
def graph_file(tmp_path):
    instance, _ = figure2_graph()
    path = tmp_path / "figure2.edges"
    path.write_text(instance_to_edge_list(instance), encoding="utf-8")
    return str(path)


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "queries.rpq"
    path.write_text("# batch of path queries\na b*\n\nb\n", encoding="utf-8")
    return str(path)


class TestEngineCommand:
    def test_batch_from_one_source(self, graph_file, query_file, capsys):
        assert main(["engine", graph_file, query_file, "--source", "o1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "a b*\to1\to2 o3" in lines
        assert "b\to1\t" in lines

    def test_multiple_sources_are_batched(self, graph_file, query_file, capsys):
        code = main(["engine", graph_file, query_file, "-s", "o1", "-s", "o2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "a b*\to2\t" in lines
        assert "b\to2\to3" in lines

    def test_all_sources(self, graph_file, query_file, capsys):
        assert main(["engine", graph_file, query_file, "--all-sources"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # 2 queries x 3 objects (the isolated 'd' is not in the edge list).
        assert len(lines) == 6

    def test_stats_on_stderr(self, graph_file, query_file, capsys):
        code = main(["engine", graph_file, query_file, "-s", "o1", "--stats"])
        assert code == 0
        err = capsys.readouterr().err
        assert "engine_compile_misses" in err and "engine_batched_sources" in err

    def test_conflicting_source_flags_rejected(self, graph_file, query_file, capsys):
        code = main(["engine", graph_file, query_file, "-s", "o1", "--all-sources"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_requires_sources(self, graph_file, query_file, capsys):
        assert main(["engine", graph_file, query_file]) == 2
        assert "--source" in capsys.readouterr().err

    def test_empty_query_file(self, graph_file, tmp_path, capsys):
        empty = tmp_path / "empty.rpq"
        empty.write_text("# nothing here\n", encoding="utf-8")
        assert main(["engine", graph_file, str(empty), "-s", "o1"]) == 2
        assert "no queries" in capsys.readouterr().err

    def test_bad_query_syntax_exits_two(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.rpq"
        bad.write_text("(a\n", encoding="utf-8")
        assert main(["engine", graph_file, str(bad), "-s", "o1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_constraint_prerewrite_accepted(self, graph_file, query_file, capsys):
        code = main(
            ["engine", graph_file, query_file, "-s", "o1", "-c", "a b b = a"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "a b*\to1\to2 o3" in lines


class TestEngineSnapshotFlags:
    def test_save_then_load_round_trip(self, graph_file, query_file, tmp_path, capsys):
        snap = str(tmp_path / "graph.snap")
        assert main(
            ["engine", graph_file, query_file, "--all-sources", "--save-snapshot", snap]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            [
                "engine", graph_file, query_file, "--all-sources",
                "--load-snapshot", snap, "--stats",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        # Warm start: the graph was restored, not rebuilt, and the persisted
        # query cache served both queries without a single compile.
        assert "engine_graph_builds 0" in captured.err
        assert "engine_snapshot_restores 1" in captured.err
        assert "engine_compile_misses 0" in captured.err

    def test_load_snapshot_falls_back_on_mismatched_graph(
        self, graph_file, query_file, tmp_path, capsys
    ):
        from repro.graph import figure2_graph, instance_to_edge_list

        snap = str(tmp_path / "graph.snap")
        assert main(
            ["engine", graph_file, query_file, "-s", "o1", "--save-snapshot", snap]
        ) == 0
        capsys.readouterr()
        instance, _ = figure2_graph()
        instance.add_edge("o1", "zz", "o3")
        changed = tmp_path / "changed.edges"
        changed.write_text(instance_to_edge_list(instance), encoding="utf-8")
        assert main(
            [
                "engine", str(changed), query_file, "-s", "o1",
                "--load-snapshot", snap, "--stats",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "a b*\to1\to2 o3" in captured.out.splitlines()
        assert "engine_graph_builds 1" in captured.err

    def test_saved_snapshot_is_the_stdlib_format(self, graph_file, query_file, tmp_path, capsys):
        snap = tmp_path / "graph.bin"
        assert main(
            ["engine", graph_file, query_file, "-s", "o1", "--save-snapshot", str(snap)]
        ) == 0
        assert snap.read_bytes().startswith(b"RPQSNAP")
        assert main(
            ["engine", graph_file, query_file, "-s", "o1", "--load-snapshot", str(snap)]
        ) == 0

    def test_load_missing_snapshot_exits_two(self, graph_file, query_file, capsys):
        code = main(
            ["engine", graph_file, query_file, "-s", "o1", "--load-snapshot", "/nope"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestEngineBackendFlag:
    def test_packed_backend_forced(self, graph_file, query_file, capsys):
        code = main(
            ["engine", graph_file, query_file, "-s", "o1", "--backend", "packed", "--stats"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "a b*\to1\to2 o3" in captured.out.splitlines()
        # The subcommand batches even one source, so the forced kernel ran.
        assert "engine_backend_runs{packed} 2" in captured.err

    def test_python_backend_is_gone(self, graph_file, query_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["engine", graph_file, query_file, "-s", "o1", "--backend", "python"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'python'" in capsys.readouterr().err
        remaining = r"expected one of \('auto', 'packed', 'numpy'\)"
        with pytest.raises(ReproError, match=rf"unknown engine backend 'python'; {remaining}"):
            Engine.open(figure2_graph()[0], backend="python")

    def test_numpy_backend_when_available(self, graph_file, query_file, capsys):
        from repro.engine import numpy_available

        if not numpy_available():
            pytest.skip("numpy backend unavailable")
        code = main(
            ["engine", graph_file, query_file, "-s", "o1", "--backend", "numpy", "--stats"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "a b*\to1\to2 o3" in captured.out.splitlines()
        assert "engine_backend_runs{numpy}" in captured.err

    def test_stats_count_the_product_lowerings(self, graph_file, query_file, capsys):
        from repro.engine import numpy_available

        if not numpy_available():
            pytest.skip("numpy backend unavailable")
        code = main(
            ["engine", graph_file, query_file, "--all-sources", "--backend", "numpy",
             "--stats"]
        )
        assert code == 0
        stats = dict(
            line.lstrip("# ").rsplit(" ", 1) for line in capsys.readouterr().err.splitlines()
            if "product_lowerings_total" in line
        )
        # Two queries, each lowered once on the unedited graph.
        assert stats == {
            "engine_product_lowerings_total{built}": "2",
            "engine_product_lowerings_total{hit}": "0",
            "engine_product_lowerings_total{patched}": "0",
        }

    def test_auto_backend_matches_availability(self, graph_file, query_file, capsys):
        from repro.engine import resolve_backend

        code = main(
            ["engine", graph_file, query_file, "-s", "o1", "--backend", "auto", "--stats"]
        )
        assert code == 0
        expected = resolve_backend("auto")
        assert f"engine_backend_runs{{{expected}}}" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_argparse(self, graph_file, query_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["engine", graph_file, query_file, "-s", "o1", "--backend", "rust"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestEngineShardedFlags:
    def test_sharded_serving_matches_monolithic(self, graph_file, query_file, capsys):
        assert main(["engine", graph_file, query_file, "--all-sources"]) == 0
        expected = capsys.readouterr().out
        code = main(["engine", graph_file, query_file, "--all-sources", "--shards", "2"])
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_steal_threshold_flag_rejected_by_argparse(self, graph_file, query_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["engine", graph_file, query_file, "--all-sources", "--shards", "2",
                  "--steal-threshold", "2"])
        assert excinfo.value.code == 2
        assert "--steal-threshold" in capsys.readouterr().err

    def test_snapshot_dir_cold_then_warm(self, graph_file, query_file, tmp_path, capsys):
        directory = str(tmp_path / "shards")
        code = main(
            ["engine", graph_file, query_file, "--all-sources",
             "--shards", "3", "--snapshot-dir", directory, "--stats"]
        )
        assert code == 0
        first = capsys.readouterr()
        assert "sharded_warm_shards 0" in first.err
        assert (tmp_path / "shards" / "manifest.json").is_file()
        # Second invocation warm-starts every shard from the directory.
        code = main(
            ["engine", graph_file, query_file, "--all-sources",
             "--snapshot-dir", directory, "--stats"]
        )
        assert code == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "sharded_warm_shards 3" in second.err
        assert "sharded_rebuilt_shards 0" in second.err

    def test_snapshot_dir_without_shards_needs_manifest(
        self, graph_file, query_file, tmp_path, capsys
    ):
        directory = str(tmp_path / "empty")
        code = main(
            ["engine", graph_file, query_file, "--all-sources", "--snapshot-dir", directory]
        )
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_sharded_flags_reject_single_snapshot_flags(
        self, graph_file, query_file, tmp_path, capsys
    ):
        code = main(
            ["engine", graph_file, query_file, "--all-sources", "--shards", "2",
             "--save-snapshot", str(tmp_path / "x.snap")]
        )
        assert code == 2
        assert "incompatible" in capsys.readouterr().err

    def test_shards_mismatch_against_manifest_exits_two(
        self, graph_file, query_file, tmp_path, capsys
    ):
        directory = str(tmp_path / "shards")
        assert main(
            ["engine", graph_file, query_file, "--all-sources",
             "--shards", "2", "--snapshot-dir", directory]
        ) == 0
        capsys.readouterr()
        code = main(
            ["engine", graph_file, query_file, "--all-sources",
             "--shards", "5", "--snapshot-dir", directory]
        )
        assert code == 2
        assert "contradicts" in capsys.readouterr().err


class TestServeCommand:
    def _serve(self, monkeypatch, capsys, argv, stdin_text):
        import io
        import sys as _sys

        stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode("utf-8")), encoding="utf-8")
        monkeypatch.setattr(_sys, "stdin", stdin)
        code = main(argv)
        return code, capsys.readouterr()

    def test_stdin_round_trip(self, graph_file, monkeypatch, capsys):
        code, captured = self._serve(
            monkeypatch,
            capsys,
            ["serve", graph_file],
            "r1\to1\ta b*\nr2\to2\tb\n",
        )
        assert code == 0
        # Responses stream in completion order; the id correlates them.
        responses = dict(
            line.split("\t", 1) for line in captured.out.splitlines()
        )
        assert responses == {"r1": "o2 o3", "r2": "o3"}

    def test_stdin_coalesces_same_query(self, graph_file, monkeypatch, capsys):
        requests = "".join(f"r{i}\to{1 + i % 3}\ta b*\n" for i in range(6))
        code, captured = self._serve(
            monkeypatch,
            capsys,
            # The six lines arrive in one read chunk, which is fed in one
            # loop turn before a worker takes the bucket.
            ["serve", graph_file, "--stats"],
            requests,
        )
        assert code == 0
        assert len(captured.out.splitlines()) == 6
        # All six requests shared one admission bucket -> one batch.
        assert "serving_batches 1" in captured.err

    def test_unterminated_last_line_is_answered(self, graph_file, monkeypatch, capsys):
        code, captured = self._serve(
            monkeypatch, capsys, ["serve", graph_file], "r1\to1\ta b*\r\nr2\to2\tb"
        )
        assert code == 0
        assert sorted(captured.out.splitlines()) == ["r1\to2 o3", "r2\to3"]

    def test_text_only_stdin_is_read_a_line_at_a_time(self, graph_file, monkeypatch, capsys):
        # A StringIO has no byte buffer to read chunks from.
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO("r1\to1\ta b*\nr2\to2\tb\n"))
        assert main(["serve", graph_file]) == 0
        assert sorted(capsys.readouterr().out.splitlines()) == ["r1\to2 o3", "r2\to3"]

    def test_max_delay_flag_is_gone(self, graph_file, capsys):
        # No flush waits on a clock, so there is no delay to set.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", graph_file, "--max-delay", "0.2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --max-delay" in capsys.readouterr().err

    def test_sharded_serve_with_concurrency(self, graph_file, monkeypatch, capsys):
        code, captured = self._serve(
            monkeypatch,
            capsys,
            ["serve", graph_file, "--shards", "2", "--concurrency", "2", "--stats"],
            "r1\to1\ta b*\n",
        )
        assert code == 0
        assert captured.out.splitlines() == ["r1\to2 o3"]
        assert "sharded_shards 2" in captured.err

    def test_malformed_and_failing_requests_answer_errors(
        self, graph_file, monkeypatch, capsys
    ):
        code, captured = self._serve(
            monkeypatch,
            capsys,
            ["serve", graph_file],
            "r1\to1\t((((\nnot-a-request\n",
        )
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0].startswith("r1\terror: ")
        assert "malformed request" in lines[1]

    def test_bad_tcp_spec_exits_two(self, graph_file, capsys):
        assert main(["serve", graph_file, "--tcp", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_constraints_accepted(self, graph_file, monkeypatch, capsys):
        code, captured = self._serve(
            monkeypatch,
            capsys,
            ["serve", graph_file, "-c", "a b b = a"],
            "r1\to1\ta b*\n",
        )
        assert code == 0
        assert captured.out.splitlines() == ["r1\to2 o3"]


class TestEngineConcurrencyFlag:
    def test_concurrency_flag_is_gone(self, graph_file, query_file, capsys):
        # A sharded session runs one fixpoint: there are no per-shard steps
        # left to put on worker threads.
        for extra in ([], ["--shards", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["engine", graph_file, query_file, "--all-sources",
                      "--concurrency", "2", *extra])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --concurrency" in capsys.readouterr().err

    def test_shards_serve_the_monolithic_answers(self, graph_file, query_file, capsys):
        code = main(
            ["engine", graph_file, query_file, "--all-sources", "--shards", "2"]
        )
        assert code == 0
        sharded_out = capsys.readouterr().out
        assert main(["engine", graph_file, query_file, "--all-sources"]) == 0
        assert capsys.readouterr().out == sharded_out

    def test_unresolvable_tcp_host_exits_two(self, graph_file, capsys):
        code = main(["serve", graph_file, "--tcp", "no.such.host.invalid:0"])
        assert code == 2
        assert "cannot listen on" in capsys.readouterr().err


class TestCrpqCommand:
    @pytest.fixture
    def chain_file(self, tmp_path):
        path = tmp_path / "chain.edges"
        path.write_text(
            "u a v\nu a w\nv b t\nw b t\n", encoding="utf-8"
        )
        return str(path)

    def test_rows_in_return_order(self, chain_file, capsys):
        code = main(
            ["crpq", chain_file, "MATCH x -[a]-> y, y -[b]-> z RETURN x, z"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["u,t"]
        assert "# x, z" in captured.err  # column header on stderr

    def test_source_binds_first_variable(self, chain_file, capsys):
        code = main(
            ["crpq", chain_file, "MATCH x -[a]-> y RETURN y", "--source", "u"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["v", "w"]

    def test_plan_prints_join_order(self, chain_file, capsys):
        code = main(
            [
                "crpq", chain_file,
                "MATCH x -[a]-> y, y -[b]-> z RETURN x", "--plan",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "# plan: strategy=optimized acyclic=True" in err
        assert "# step 0:" in err and "# step 1:" in err
        # ... and, per executed step, the estimate beside the actual pairs.
        ran = [line for line in err.splitlines() if line.startswith("# ran: ")]
        assert len(ran) == 2
        assert all("pairs (estimated " in line and "q-error " in line for line in ran)

    def test_sharded_and_strategy_flags(self, chain_file, capsys):
        code = main(
            [
                "crpq", chain_file, "MATCH x -[a b]-> y RETURN x, y",
                "--shards", "2", "--strategy", "worst",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["u,t"]

    def test_stats_snapshot_carries_crpq_counters(self, chain_file, capsys):
        code = main(
            ["crpq", chain_file, "MATCH x -[a]-> y RETURN y", "--stats"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "crpq_queries 1" in err

    def test_scalar_query_is_an_error(self, chain_file, capsys):
        assert main(["crpq", chain_file, "a b"]) == 2
        assert "MATCH" in capsys.readouterr().err

    def test_concurrency_flag_is_gone(self, chain_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["crpq", chain_file, "MATCH x -[a]-> y RETURN y",
                  "--shards", "2", "--concurrency", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --concurrency" in capsys.readouterr().err
