"""Unit tests for the sharded engine layer (``repro.engine.sharding``).

Shard maps, partitioning, the subset CSR build, the shared label universe,
scatter-gather evaluation (answers, witnesses, stats), mutation routing, and
per-shard snapshot persistence — including the headline property that a
single stale shard recompiles alone while every warm shard loads from disk.
"""

import json
import os
import threading

import pytest

from repro.engine import (
    CompiledGraph,
    Engine,
    ExplicitShardMap,
    HashShardMap,
    ShardedEngine,
    ShardMap,
    numpy_available,
    partition_instance,
    shard_graph,
)
from repro.engine.session import Session
from repro.engine.sharding import MANIFEST_NAME
from repro.exceptions import ReproError
from repro.graph import Instance, figure2_graph, web_like_graph
from repro.query import RegularPathQuery

EXECUTOR_BACKENDS = ("python", "numpy") if numpy_available() else ("python",)


def web(nodes=40, seed=7, labels=("a", "b", "c")):
    instance, root = web_like_graph(nodes, list(labels), seed=seed)
    return instance, root


# ---------------------------------------------------------------------------
# Shard maps.
# ---------------------------------------------------------------------------
class TestShardMaps:
    def test_hash_map_is_stable_and_in_range(self):
        shard_map = HashShardMap(5)
        for oid in ("o1", "o2", 3, ("t", 1)):
            shard = shard_map.shard_of(oid)
            assert 0 <= shard < 5
            assert shard == HashShardMap(5).shard_of(oid)

    def test_hash_map_rejects_zero_shards(self):
        with pytest.raises(ReproError):
            HashShardMap(0)

    def test_hash_map_round_trips_through_spec(self):
        shard_map = HashShardMap(3)
        rebuilt = ShardMap.from_spec(shard_map.spec())
        assert rebuilt.num_shards == 3
        assert rebuilt.fingerprint() == shard_map.fingerprint()

    def test_explicit_map_assignment_and_fallback(self):
        shard_map = ExplicitShardMap({"a": 0, "b": 2}, num_shards=3)
        assert shard_map.shard_of("a") == 0
        assert shard_map.shard_of("b") == 2
        # Unassigned oids hash-fall-back into range.
        assert 0 <= shard_map.shard_of("never-assigned") < 3

    def test_explicit_map_infers_shard_count(self):
        assert ExplicitShardMap({"a": 0, "b": 4}).num_shards == 5

    def test_explicit_map_rejects_out_of_range_assignment(self):
        with pytest.raises(ReproError):
            ExplicitShardMap({"a": 3}, num_shards=2)

    def test_explicit_spec_is_a_digest_not_the_assignment(self):
        spec = ExplicitShardMap({"site-one": 0, "site-two": 1}).spec()
        assert spec["kind"] == "explicit"
        assert "site-one" not in json.dumps(spec)
        with pytest.raises(ReproError, match="shard_map"):
            ShardMap.from_spec(spec)

    def test_explicit_fingerprint_is_order_insensitive(self):
        one = ExplicitShardMap({"a": 0, "b": 1}, num_shards=2)
        two = ExplicitShardMap({"b": 1, "a": 0}, num_shards=2)
        assert one.fingerprint() == two.fingerprint()

    def test_by_site_gives_every_object_its_own_shard(self):
        instance, _ = figure2_graph()
        shard_map = ShardMap.by_site(instance)
        assert shard_map.num_shards == len(instance)
        assert len({shard_map.shard_of(oid) for oid in instance.objects}) == len(
            instance
        )


# ---------------------------------------------------------------------------
# Partitioning and the subset CSR build.
# ---------------------------------------------------------------------------
class TestPartition:
    def test_partition_covers_objects_and_edges_exactly_once(self):
        instance, _ = web(30)
        subs = partition_instance(instance, HashShardMap(4))
        owned = [
            {oid for oid in sub.objects if HashShardMap(4).shard_of(oid) == i}
            for i, sub in enumerate(subs)
        ]
        assert set().union(*owned) == instance.objects
        assert sum(sub.edge_count() for sub in subs) == instance.edge_count()
        for i, sub in enumerate(subs):
            for source, _, _ in sub.edges():
                assert HashShardMap(4).shard_of(source) == i

    def test_subset_build_matches_sub_instance_build(self):
        # Node *ids* differ (the subset build interns owned nodes as a dense
        # prefix; the sub-instance build sorts owned and ghost oids
        # together), so equivalence is checked in oid space.
        instance, _ = web(25)
        shard_map = HashShardMap(3)
        subs = partition_instance(instance, shard_map)
        labels = sorted(instance.labels())

        def oid_edges(graph):
            return {
                (graph.oid_of(s), graph.labels.value_of(l), graph.oid_of(d))
                for s, l, d in graph.iter_edges()
            }

        for shard in range(3):
            direct = shard_graph(instance, shard_map, shard, labels=labels)
            via_sub = CompiledGraph.from_instance(subs[shard], labels=labels)
            assert set(direct.nodes) == set(via_sub.nodes)
            assert direct.labels_fingerprint() == via_sub.labels_fingerprint()
            assert oid_edges(direct) == oid_edges(via_sub)
            # Owned nodes form a dense prefix of the subset build's ids.
            owned = sum(
                1 for oid in direct.nodes if shard_map.shard_of(oid) == shard
            )
            assert all(
                shard_map.shard_of(direct.oid_of(node)) == shard
                for node in range(owned)
            )

    def test_label_seed_pre_interns_in_order(self):
        instance = Instance([("x", "b", "y")])
        graph = CompiledGraph.from_instance(instance, labels=["z", "a", "b"])
        assert graph.labels_fingerprint() == ("z", "a", "b")
        # The seeded-but-edgeless labels traverse as empty.
        assert list(graph.successors(0, graph.label_id("z"))) == []

    def test_ensure_label_grows_universe_without_version_bump(self):
        instance = Instance([("x", "a", "y")])
        graph = CompiledGraph.from_instance(instance)
        version = graph.version
        assert graph.ensure_label("fresh") is True
        assert graph.ensure_label("fresh") is False
        assert graph.version == version
        assert graph.labels_fingerprint() == ("a", "fresh")
        node = graph.node_id("x")
        assert list(graph.successors(node, graph.label_id("fresh"))) == []
        # The new label is immediately usable for incremental adds.
        graph.add_edge("x", "fresh", "y")
        assert list(graph.successors(node, graph.label_id("fresh"))) == [
            graph.node_id("y")
        ]

    def test_ensure_label_rejects_bad_labels(self):
        graph = CompiledGraph.from_instance(Instance([("x", "a", "y")]))
        with pytest.raises(Exception):
            graph.ensure_label("")


# ---------------------------------------------------------------------------
# Scatter-gather evaluation.
# ---------------------------------------------------------------------------
class TestShardedEvaluation:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_matches_monolithic_engine(self, shards, backend):
        instance, _ = web(40)
        mono = Engine.open(instance, backend=backend)
        sharded = ShardedEngine.open(instance, shards=shards, backend=backend)
        for query in ("a (b + c)*", "a* b", "(a + b) c*", "%"):
            assert sharded.query_all(query) == mono.query_all(query), query
        assert sharded.stats.supersteps >= 1
        # Batches answer in request order (first occurrence), unknown
        # sources included, on both sessions.
        first, second = sorted(instance.objects, key=repr)[:2]
        request = [first, "zz", second, first]
        for session in (mono, sharded):
            for result in (
                session.query_batch("a*", request),
                session.query_batch_results("a*", request),
            ):
                assert list(result) == [first, "zz", second], session
        assert sharded.query_batch("a*", request) == mono.query_batch("a*", request)

    def test_cross_shard_label_split_is_not_pruned(self):
        # Shard 0 owns the only 'a' edge, shard 1 the only 'b' edge: a
        # shard-local label universe would kill the 'awaiting b' DFA state
        # on shard 0 and lose the answer.
        instance = Instance([("u", "a", "v"), ("v", "b", "w")])
        shard_map = ExplicitShardMap({"u": 0, "v": 1, "w": 0}, num_shards=2)
        sharded = ShardedEngine.open(instance, shard_map=shard_map)
        assert sharded.query_batch("a b", ["u"]) == {"u": {"w"}}
        assert sharded.stats.exchanged_facts >= 1

    def test_by_site_map_mirrors_distributed_model(self):
        instance, _ = figure2_graph()
        sharded = ShardedEngine.open(instance, shard_map=ShardMap.by_site(instance))
        mono = Engine.open(instance)
        assert sharded.query_all("a b*") == mono.query_all("a b*")

    def test_visited_pairs_match_monolithic(self):
        # Owned facts across shards are exactly the monolithic product
        # reachability — ghost copies are excluded from the stat.
        instance, _ = web(30)
        mono = Engine.open(instance)
        sharded = ShardedEngine.open(instance, shards=3)
        sources = sorted(instance.objects, key=repr)[:8]
        mono.query_batch("a (b + c)*", sources)
        sharded.query_batch("a (b + c)*", sources)
        assert sharded.stats.visited_pairs == mono.stats.visited_pairs

    def test_unknown_source_empty_word_semantics(self):
        instance, _ = web(10)
        sharded = ShardedEngine.open(instance, shards=2)
        assert sharded.query_batch("a*", ["missing"]) == {"missing": {"missing"}}
        assert sharded.query_batch("a", ["missing"]) == {"missing": set()}
        result = sharded.query("a*", "missing")
        assert result.answers == {"missing"}
        assert result.witness_paths["missing"] == ()

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_single_source_witnesses_replay(self, backend):
        from test_engine_witness import assert_result_witnesses_real

        instance, root = web(30)
        rpq = RegularPathQuery.of("a (b + c)*")
        sharded = ShardedEngine.open(instance, shards=3, backend=backend)
        result = sharded.query(rpq, root)
        assert result.answers == Engine.open(instance).query(rpq, root).answers
        assert_result_witnesses_real(result, rpq, root, instance)

    def test_constraint_prerewrite_is_central_and_matches_monolithic(self):
        from repro.constraints import ConstraintSet, parse_constraint

        instance, _ = web(20)
        constraints = ConstraintSet([parse_constraint("a b <= c")])
        mono = Engine.open(instance, constraints=constraints)
        sharded = ShardedEngine.open(instance, shards=3, constraints=constraints)
        for query in ("a b", "c*", "(a b + c)*"):
            assert sharded.query_all(query) == mono.query_all(query), query
        # The rewrite happens once, in the sharded session; shard engines
        # must stay constraint-free or their DFAs could drift apart.
        assert all(e.constraints is None for e in sharded.shard_engines)

    def test_engine_open_delegates_to_sharded(self):
        instance, _ = web(15)
        engine = Engine.open(instance, shards=2)
        assert isinstance(engine, ShardedEngine)
        assert engine.num_shards == 2

    def test_requires_shards_or_map(self):
        instance, _ = web(5)
        with pytest.raises(ReproError):
            ShardedEngine.open(instance)
        with pytest.raises(ReproError):
            ShardedEngine.open(instance, shards=2, shard_map=HashShardMap(3))

    def test_describe_mentions_shards_and_supersteps(self):
        instance, _ = web(10)
        sharded = ShardedEngine.open(instance, shards=2)
        sharded.query_batch("a b", sorted(instance.objects, key=repr)[:4])
        text = sharded.describe()
        assert "shards: 2" in text and "supersteps" in text


class TestSessionParity:
    """Both session kinds are one :class:`Session` API over two evaluators."""

    API = (
        "query", "answer_set", "query_batch", "query_batch_streaming",
        "query_batch_results", "query_all", "describe", "close",
        "telemetry", "as_server",
    )
    # What a host may define for itself: its lifecycle and mutation code.
    HOST_OVERRIDES = {
        "open", "save", "refresh", "add_edge", "remove_edge", "compact_now",
        "auto_compact_ratio",
    }

    @pytest.mark.parametrize("host", [Engine, ShardedEngine])
    def test_api_is_defined_once_on_the_base(self, host):
        for name in self.API:
            owners = [cls for cls in host.__mro__ if name in vars(cls)]
            assert owners == [Session], (host.__name__, name, owners)

    def test_hosts_share_no_public_method_beyond_the_override_list(self):
        def public(cls):
            return {
                name for name in vars(cls)
                if not name.startswith("_") and not name.isupper()
            }

        assert public(Engine) & public(ShardedEngine) <= self.HOST_OVERRIDES


class TestClose:
    """``close()`` releases the superstep threads; the session keeps serving
    every query shape, sequentially."""

    def two_shards(self):
        instance = Instance()
        for edge in (("a0", "x", "a1"), ("a1", "x", "a2"), ("a2", "y", "b0"),
                     ("b0", "x", "b1")):
            instance.add_edge(*edge)
        assignment = {"a0": 0, "a1": 0, "a2": 0, "b0": 1, "b1": 1}
        return instance, ExplicitShardMap(assignment, num_shards=2)

    def test_queries_after_close_answer_like_the_monolithic_engine(self):
        instance, shard_map = self.two_shards()
        mono = Engine.open(instance)
        engine = ShardedEngine.open(instance, shard_map=shard_map, concurrency=2)
        engine.query_batch("x* y x*", ["a0"])
        engine.close()
        assert engine.scheduler is None
        # ``x*`` from a0 stays in shard 0; ``x* y x*`` crosses into shard 1
        # and needs a barrier between the two shards' steps.
        for query, supersteps in (("x*", 1), ("x* y x*", 2)):
            assert engine.query_batch(query, ["a0", "b0"]) == mono.query_batch(
                query, ["a0", "b0"]
            ), query
            assert engine.query(query, "a0").answers == mono.query(query, "a0").answers
            assert engine.stats.last_run.supersteps == supersteps, query
        engine.close()  # a second close is a no-op
        assert engine.scheduler is None
        assert engine.query_all("x* y x*") == mono.query_all("x* y x*")


# ---------------------------------------------------------------------------
# Batched cross-shard witnesses.
# ---------------------------------------------------------------------------
class TestShardedBatchedWitnesses:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_batched_witnesses_replay_and_match_monolithic(self, backend):
        from test_engine_witness import assert_result_witnesses_real

        instance, _ = web(30)
        rpq = RegularPathQuery.of("a (b + c)*")
        sharded = ShardedEngine.open(instance, shards=3, backend=backend)
        mono = Engine.open(instance, backend=backend)
        sources = sorted(instance.objects, key=repr)[:6]
        served = sharded.query_batch_results(rpq, sources)
        reference = mono.query_batch_results(rpq, sources)
        for source in sources:
            assert served[source].answers == reference[source].answers, source
            assert_result_witnesses_real(served[source], rpq, source, instance)

    def test_batched_witness_crosses_shard_boundaries(self):
        # The only witness word walks u -> v -> w across two shards; the
        # reconstruction must stitch adjacency through both sub-instances.
        instance = Instance([("u", "a", "v"), ("v", "b", "w")])
        shard_map = ExplicitShardMap({"u": 0, "v": 1, "w": 0}, num_shards=2)
        sharded = ShardedEngine.open(instance, shard_map=shard_map)
        results = sharded.query_batch_results("a b", ["u", "v", "ghost-src"])
        assert results["u"].answers == {"w"}
        assert results["u"].witness_paths == {"w": ("a", "b")}
        assert results["v"].answers == set()
        assert results["v"].witness_paths == {}
        assert results["ghost-src"].answers == set()

    def test_batched_witness_empty_word_for_unknown_source(self):
        instance, _ = web(10)
        sharded = ShardedEngine.open(instance, shards=2)
        results = sharded.query_batch_results("a*", ["missing"])
        assert results["missing"].answers == {"missing"}
        assert results["missing"].witness_paths == {"missing": ()}

    def test_batched_witnesses_are_per_source_bits(self):
        # Two sources with different answer sets must not leak witnesses
        # into each other (the per-bit restriction of the shared fact map).
        instance = Instance(
            [("p", "a", "q"), ("q", "b", "r"), ("x", "b", "r"), ("r", "a", "p")]
        )
        sharded = ShardedEngine.open(instance, shards=2)
        mono = Engine.open(instance)
        sources = ["p", "x", "r"]
        served = sharded.query_batch_results("a? b", sources)
        reference = mono.query_batch_results("a? b", sources)
        for source in sources:
            assert served[source].answers == reference[source].answers, source
            assert set(served[source].witness_paths) == set(
                reference[source].witness_paths
            ), source


# ---------------------------------------------------------------------------
# Stats accounting: per-evaluation vs cumulative counters.
# ---------------------------------------------------------------------------
class TestShardedStatsAccounting:
    def test_backend_evaluations_pin_against_monolithic(self):
        # Regression: superstep re-seeds used to be funnelled into the shard
        # engines' backend_runs, counting one logical evaluation as many
        # runs with no monolithic-comparable tally anywhere.
        instance, _ = web(40)
        mono = Engine.open(instance)
        sharded = ShardedEngine.open(instance, shards=3)
        sources = sorted(instance.objects, key=repr)[:8]
        mono.query_batch("a (b + c)*", sources)
        sharded.query_batch("a (b + c)*", sources)
        backend = mono.resolved_backend
        assert mono.stats.backend_runs == {backend: 1}
        # One logical evaluation: comparable 1:1 with the monolithic count.
        assert sharded.stats.backend_evaluations == {backend: 1}
        # Cumulative local runs exceed it exactly when re-seeding happened,
        # and are reported separately instead of inflating anything else.
        assert sharded.stats.backend_runs == {backend: sharded.stats.local_runs}
        assert sharded.stats.local_runs >= sharded.stats.supersteps >= 1
        # The shard engines' own counters no longer absorb superstep re-runs.
        for engine in sharded.shard_engines:
            assert engine.stats.backend_runs == {}

    def test_last_run_counters_reset_per_evaluation(self):
        instance, _ = web(40)
        sharded = ShardedEngine.open(instance, shards=3)
        sources = sorted(instance.objects, key=repr)[:8]
        sharded.query_batch("a (b + c)*", sources)
        first_total = sharded.stats.supersteps
        first_runs = sharded.stats.local_runs
        assert sharded.stats.last_run.supersteps == first_total
        assert sharded.stats.last_run.local_runs == first_runs
        sharded.query_batch("b c", sources)
        # The cumulative counters kept growing; last_run shows only the
        # second evaluation.
        assert (
            sharded.stats.supersteps
            == first_total + sharded.stats.last_run.supersteps
        )
        assert (
            sharded.stats.local_runs
            == first_runs + sharded.stats.last_run.local_runs
        )
        assert sharded.stats.last_run.supersteps >= 1

    def test_last_run_publish_is_atomic_under_concurrent_readers(self):
        # Regression: ``last_run`` used to be reset *in place* at the start
        # of each evaluation, so a concurrent ``describe()``/gauge read
        # could observe a half-filled counters object.  Counters are now
        # accumulated locally and published by one reference assignment, so
        # every observed last_run must be a *completed* evaluation's values.
        instance, _ = web(40)
        sharded = ShardedEngine.open(instance, shards=3)
        sources = sorted(instance.objects, key=repr)[:6]
        sharded.query_batch("a (b + c)*", sources)
        reference = sharded.stats.last_run
        expected = (
            reference.supersteps,
            reference.local_runs,
            reference.exchanged_facts,
        )

        torn = []
        stop = threading.Event()

        def read():
            while not stop.is_set():
                last = sharded.stats.last_run
                observed = (last.supersteps, last.local_runs, last.exchanged_facts)
                if observed != expected:
                    torn.append(observed)

        readers = [threading.Thread(target=read) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            # Identical repeated evaluations: every *complete* publication
            # carries the same values, so any deviation is a torn read.
            for _ in range(30):
                sharded.query_batch("a (b + c)*", sources)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert not torn, f"partially-published last_run observed: {torn[:5]}"

    def test_describe_reports_both_tallies(self):
        instance, _ = web(20)
        sharded = ShardedEngine.open(instance, shards=2)
        sharded.query_batch("a b", sorted(instance.objects, key=repr)[:4])
        text = sharded.describe()
        assert "last evaluation" in text and "backend evaluations/runs" in text


# ---------------------------------------------------------------------------
# Mutation routing.
# ---------------------------------------------------------------------------
class TestShardedMutation:
    def test_add_and_remove_route_to_owner_without_rebuilds(self):
        instance, _ = web(20)
        sharded = ShardedEngine.open(instance, shards=3)
        sharded.add_edge("p1", "a", "p5")
        sharded.remove_edge("p1", "a", "p5")
        sharded.add_edge("p1", "a", "p5")
        mono = Engine.open(instance.copy())
        assert sharded.query_all("a*") == mono.query_all("a*")
        assert all(e.stats.graph_builds == 1 for e in sharded.shard_engines)

    def test_new_label_reaches_every_shard_graph(self):
        instance, _ = web(20)
        sharded = ShardedEngine.open(instance, shards=3)
        sharded.add_edge("p0", "zz", "p9")
        for engine in sharded.shard_engines:
            assert engine.graph.label_id("zz") is not None
        mono = Engine.open(instance.copy())
        for query in ("zz", "a* zz", "(a + zz)*"):
            assert sharded.query_all(query) == mono.query_all(query), query

    def test_new_object_is_registered_with_its_owner(self):
        instance, _ = web(12)
        sharded = ShardedEngine.open(instance, shards=4)
        sharded.add_edge("p0", "a", "brand-new")
        sharded.add_edge("brand-new", "b", "p1")
        mono = Engine.open(instance.copy())
        assert sharded.query_all("a b") == mono.query_all("a b")

    def test_out_of_band_instance_mutation_repartitions(self):
        instance, _ = web(12)
        sharded = ShardedEngine.open(instance, shards=2)
        instance.add_edge("p0", "q", "p7")  # behind the engine's back
        mono = Engine.open(instance.copy())
        assert sharded.query_all("q") == mono.query_all("q")

    def test_remove_missing_edge_raises(self):
        instance, _ = web(8)
        sharded = ShardedEngine.open(instance, shards=2)
        with pytest.raises(Exception):
            sharded.remove_edge("p0", "nope", "p1")


# ---------------------------------------------------------------------------
# Per-shard persistence.
# ---------------------------------------------------------------------------
class TestShardedPersistence:
    def sharded_setup(self, tmp_path, shards=4, nodes=40):
        instance, _ = web(nodes, seed=11)
        sharded = ShardedEngine.open(instance, shards=shards)
        reference = sharded.query_all("a (b + c)*")
        directory = str(tmp_path / "snaps")
        sharded.save(directory)
        return instance, sharded, reference, directory

    def test_save_writes_manifest_and_one_file_per_shard(self, tmp_path):
        _, _, _, directory = self.sharded_setup(tmp_path)
        names = sorted(os.listdir(directory))
        assert MANIFEST_NAME in names
        assert sum(name.endswith(".snap") for name in names) == 4
        with open(os.path.join(directory, MANIFEST_NAME), encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["shard_map"]["kind"] == "hash"
        assert len(manifest["shards"]) == 4
        assert manifest["labels"] == sorted("abc")

    def test_warm_reopen_with_instance(self, tmp_path):
        instance, _, reference, directory = self.sharded_setup(tmp_path)
        warm = ShardedEngine.open(directory, instance=instance)
        assert warm.warm_shards == 4 and warm.rebuilt_shards == 0
        assert warm.query_all("a (b + c)*") == reference

    def test_standalone_reopen_reconstructs_instance(self, tmp_path):
        instance, _, reference, directory = self.sharded_setup(tmp_path)
        alone = ShardedEngine.open(directory)
        assert alone.instance == instance
        assert alone.query_all("a (b + c)*") == reference

    def test_single_stale_shard_recompiles_alone(self, tmp_path):
        instance, sharded, _, directory = self.sharded_setup(tmp_path)
        shard_map = sharded.shard_map
        victim = next(
            oid
            for oid in sorted(instance.objects, key=repr)
            if shard_map.shard_of(oid) == 2 and instance.out_degree(oid)
        )
        label, destination = instance.out_edges(victim)[0]
        instance.remove_edge(victim, label, destination)
        stale = ShardedEngine.open(directory, instance=instance)
        assert stale.rebuilt_shards == 1 and stale.warm_shards == 3
        rebuilt = [
            i
            for i, engine in enumerate(stale.shard_engines)
            if engine.stats.graph_builds
        ]
        assert rebuilt == [2]
        mono = Engine.open(instance)
        assert stale.query_all("a (b + c)*") == mono.query_all("a (b + c)*")

    def test_explicit_map_must_be_resupplied(self, tmp_path):
        instance, _ = web(15)
        shard_map = ExplicitShardMap(
            {oid: 0 for oid in instance.objects}, num_shards=2
        )
        sharded = ShardedEngine.open(instance, shard_map=shard_map)
        directory = str(tmp_path / "explicit")
        sharded.save(directory)
        with pytest.raises(ReproError, match="shard_map"):
            ShardedEngine.open(directory, instance=instance)
        warm = ShardedEngine.open(directory, instance=instance, shard_map=shard_map)
        assert warm.warm_shards == 2

    def test_mismatched_shard_map_rebuilds_from_instance(self, tmp_path):
        instance, _, reference, directory = self.sharded_setup(tmp_path)
        other = ExplicitShardMap({oid: 0 for oid in instance.objects}, num_shards=2)
        rebuilt = ShardedEngine.open(directory, instance=instance, shard_map=other)
        assert rebuilt.warm_shards == 0 and rebuilt.num_shards == 2
        assert rebuilt.query_all("a (b + c)*") == reference

    def test_shards_argument_must_match_manifest(self, tmp_path):
        instance, _, _, directory = self.sharded_setup(tmp_path)
        with pytest.raises(ReproError, match="shards"):
            ShardedEngine.open(directory, instance=instance, shards=9)

    def test_missing_manifest_is_a_clean_error(self, tmp_path):
        with pytest.raises(ReproError, match=MANIFEST_NAME):
            ShardedEngine.open(str(tmp_path / "nowhere"))

    def test_corrupt_manifest_is_a_clean_error(self, tmp_path):
        directory = tmp_path / "bad"
        directory.mkdir()
        (directory / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ReproError, match="corrupt"):
            ShardedEngine.open(str(directory))

    def test_directory_holds_the_one_format_and_no_staging_files(self, tmp_path):
        instance, _ = web(12)
        sharded = ShardedEngine.open(instance, shards=2)
        directory = tmp_path / "snaps"
        sharded.save(str(directory))
        sharded.save(str(directory))  # a second save replaces every file in place
        names = sorted(os.listdir(directory))
        assert names == [MANIFEST_NAME, "shard-0000.snap", "shard-0001.snap"]
        for name in names[1:]:
            assert (directory / name).read_bytes().startswith(b"RPQSNAP")
        warm = ShardedEngine.open(str(directory), instance=instance)
        assert warm.warm_shards == 2

    def test_mutate_then_save_then_reopen(self, tmp_path):
        instance, sharded, _, directory = self.sharded_setup(tmp_path)
        sharded.add_edge("p0", "zz", "p3")
        sharded.save(directory)
        warm = ShardedEngine.open(directory, instance=instance)
        assert warm.rebuilt_shards == 0
        mono = Engine.open(instance.copy())
        assert warm.query_all("zz") == mono.query_all("zz")
