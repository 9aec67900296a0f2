"""Unit tests for the sharded engine layer (``repro.engine.sharding``).

Shard maps, the one compiled graph a sharded session holds (equal to the
monolithic engine's, cold, warm-reopened and after every edit), sharded
evaluation (answers, witnesses, stats, multi-word batches), mutation, and
per-shard snapshot persistence — including the headline property that a
single stale shard's rows are rebuilt alone while every warm shard loads
from disk, and that a shard file naming ids outside the manifest's tables
is refused.
"""

import json
import os
import tempfile
import threading
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.engine import (
    CompiledGraph,
    Engine,
    ExplicitShardMap,
    HashShardMap,
    ShardedEngine,
    ShardMap,
    available_backends,
    numpy_available,
    set_telemetry_enabled,
)
from repro.engine import sharding
from repro.engine.sharding import MANIFEST_NAME
from repro.engine.snapshot import encode_container, read_container
from repro.exceptions import ReproError
from repro.graph import Instance, figure2_graph, web_like_graph
from repro.query import RegularPathQuery

EXECUTOR_BACKENDS = available_backends()


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

    def test_explicit_spec_is_taken_once_and_unchanged(self, monkeypatch, tmp_path):
        shard_map = ExplicitShardMap(
            {"site-one": 0, "site-two": 1, ("t", 3): 2, 7: 1}, num_shards=4
        )
        # The digest manifests have always stored for this assignment.
        assert shard_map.spec() == {
            "kind": "explicit",
            "num_shards": 4,
            "assignment_digest": "15df54e7aa2a67a0",
            "assigned": 4,
        }
        assert shard_map.fingerprint() == "0b452d0d692954e8b1bf1af52b8af6c2"
        # Saving and reopening read the digest, never take it again: with
        # every object assigned, no oid is digested at all.
        instance, _ = web(15)
        shard_map = ExplicitShardMap(
            {oid: index % 3 for index, oid in enumerate(sorted(instance.objects))},
            num_shards=3,
        )
        fingerprint = shard_map.fingerprint()
        digested = []
        original = sharding._oid_digest
        monkeypatch.setattr(
            sharding, "_oid_digest", lambda oid: digested.append(oid) or original(oid)
        )
        directory = str(tmp_path / "explicit")
        ShardedEngine.open(instance, shard_map=shard_map).save(directory)
        warm = ShardedEngine.open(directory, instance=instance, shard_map=shard_map)
        assert (warm.warm_shards, warm.rebuilt_shards) == (3, 0)
        assert digested == []
        assert shard_map.fingerprint() == fingerprint

    def test_by_site_gives_every_object_its_own_shard(self):
        instance, _ = figure2_graph()
        shard_map = ShardMap.by_site(instance)
        assert shard_map.num_shards == len(instance)
        assert len({shard_map.shard_of(oid) for oid in instance.objects}) == len(
            instance
        )


# ---------------------------------------------------------------------------
# Sharded evaluation.
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

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_cross_shard_label_split_is_not_pruned(self, backend):
        # Shard 0 owns the only 'a' edge, shard 1 the only 'b' edge: a
        # shard-local label universe would kill the 'awaiting b' DFA state
        # on shard 0 and lose the answer.
        instance = Instance([("u", "a", "v"), ("v", "b", "w")])
        shard_map = ExplicitShardMap({"u": 0, "v": 1, "w": 0}, num_shards=2)
        sharded = ShardedEngine.open(instance, shard_map=shard_map, backend=backend)
        assert sharded.query_batch("a b", ["u"]) == {"u": {"w"}}
        assert sharded.query("a b", "u").answers == {"w"}

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
        assert sharded.stats.rewrites_applied == mono.stats.rewrites_applied

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

    def test_registry_counts_shards_and_backend_runs(self):
        instance, _ = web(10)
        sharded = ShardedEngine.open(instance, shards=2)
        sharded.query_batch("a b", sorted(instance.objects, key=repr)[:4])
        snapshot = sharded.telemetry()
        assert (snapshot["sharded_shards"], snapshot["sharded_warm_shards"],
                snapshot["sharded_rebuilt_shards"]) == (2, 0, 2)
        assert snapshot["sharded_backend_runs"] == {sharded.resolved_backend: 1}


class TestOneSessionClass:
    """A sharded session is an :class:`Engine`: one API, one evaluator, one
    lifecycle, defined once, on the engine."""

    API = (
        "query", "answer_set", "query_batch", "query_batch_streaming",
        "query_batch_results", "query_all", "close",
        "telemetry", "as_server", "compiled",
    )
    # The evaluation itself: one compile and one executor run per call.
    EVALUATION = (
        "_compiled_on", "_query_single", "_query_batch", "_query_batch_results",
        "_query_all",
    )
    # Lifecycle and mutation: the graph and its edits.
    LIFECYCLE = (
        "refresh", "add_edge", "remove_edge", "compact_now", "auto_compact_ratio",
        "graph",
    )

    @pytest.mark.parametrize("host", [Engine, ShardedEngine])
    def test_api_is_defined_once_on_the_engine(self, host):
        for name in self.API + self.EVALUATION + self.LIFECYCLE:
            owners = [cls for cls in host.__mro__ if name in vars(cls)]
            assert owners == [Engine], (host.__name__, name, owners)

    def test_the_sharded_engine_overrides_only_open_and_save(self):
        def public(cls):
            return {
                name for name in vars(cls)
                if not name.startswith("_") and not name.isupper()
            }

        assert public(Engine) & public(ShardedEngine) == {"open", "save"}


class TestKeptForTheBenchmark:
    """What the e2e benchmark still reads of the superstep era: a
    ``concurrency`` argument that is checked but changes nothing, counters
    that count one per evaluation or stay constant, and ``close()``."""

    def test_concurrency_is_validated_and_changes_nothing(self):
        instance, root = web(30)
        with pytest.raises(ReproError, match="concurrency"):
            ShardedEngine.open(instance, shards=2, concurrency=0)
        plain = ShardedEngine.open(instance, shards=2)
        threaded = ShardedEngine.open(instance, shards=2, concurrency=3)
        before = threading.active_count()
        for query in ("a (b + c)*", "a* b"):
            assert threaded.query_all(query) == plain.query_all(query), query
            assert threaded.query(query, root) == plain.query(query, root), query
        assert threading.active_count() == before

    def test_counters_count_one_per_evaluation(self):
        instance, root = web(40)
        mono = Engine.open(instance)
        sharded = ShardedEngine.open(instance, shards=3)
        sources = sorted(instance.objects, key=repr)[:8]
        for session in (mono, sharded):
            session.query_batch("a (b + c)*", sources)
            session.query("a b", root)
            session.query_all("c")
        stats = sharded.stats
        assert stats.backend_runs == mono.stats.backend_runs
        assert stats.supersteps == stats.local_runs == 3
        assert (stats.exchanged_facts, stats.steal_events) == (0, 0)
        assert stats.superstep_skew_ratio == 1.0
        assert stats.visited_pairs == mono.stats.visited_pairs

    def test_shard_engines_is_the_session_alone(self):
        instance, root = web(20)
        sharded = ShardedEngine.open(instance, shards=3)
        sharded.query_batch("a b*", [root])
        sharded.query_batch("a b*", [root])
        assert sharded.shard_engines == (sharded,)
        assert sum(e.compiler.hits for e in sharded.shard_engines) == 1
        assert sum(e.compiler.misses for e in sharded.shard_engines) == 1

    def test_close_is_a_no_op(self):
        instance, root = web(20)
        mono = Engine.open(instance)
        engine = ShardedEngine.open(instance, shards=2, concurrency=2)
        engine.close()
        engine.close()
        assert engine.query_all("a b*") == mono.query_all("a b*")
        assert engine.query("a b*", root).answers == mono.query("a b*", root).answers

    def test_the_run_histogram_keeps_its_name(self):
        instance, root = web(20)
        engine = ShardedEngine.open(instance, shards=2)
        engine.query_batch("a b*", [root])
        engine.query("a b*", root)
        assert engine.telemetry()["sharded_local_fixpoint_seconds"]["count"] == 2


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
# Multi-word batches across shard boundaries.
# ---------------------------------------------------------------------------
def bridged_clusters(cluster_nodes=60, chain_depth=30, seed=5):
    """Two web clusters, one shard each, plus a deep ``a``-chain owned by
    shard 0 and cross-cluster links, so answers cross shards both ways.  The 80 sources span two mask words:
    word 0 is spread over both shards, word 1 is the chain (shard 0 only)."""
    labels = ["a", "b", "c"]
    instance = Instance()
    assignment: dict = {}
    for cluster in range(2):
        part, _ = web_like_graph(cluster_nodes, labels, seed=seed + cluster)
        mapped = part.map_objects(lambda oid, cluster=cluster: f"s{cluster}:{oid}")
        for oid in mapped.objects:
            instance.add_object(oid)
            assignment[oid] = cluster
        for edge in mapped.edges():
            instance.add_edge(*edge)
    previous = None
    for index in range(chain_depth):
        node = f"s0:chain{index:03d}"
        instance.add_object(node)
        assignment[node] = 0
        if previous is not None:
            instance.add_edge(previous, "a", node)
        previous = node
    instance.add_edge(previous, "b", "s0:chain000")
    per_cluster = [
        sorted(
            oid for oid in instance.objects
            if assignment[oid] == cluster and "chain" not in oid
        )[:32]
        for cluster in range(2)
    ]
    for index in range(0, 30, 3):
        instance.add_edge(f"s0:p{index}", "a", f"s1:p{index + 1}")
        instance.add_edge(f"s1:p{index + 2}", "b", f"s0:p{index}")
    instance.add_edge("s0:chain005", "a", "s1:p7")
    word0 = [per_cluster[i % 2][i // 2] for i in range(64)]
    word1 = [f"s0:chain{i:03d}" for i in range(16)]
    return instance, ExplicitShardMap(assignment, num_shards=2), word0 + word1


class TestMultiWordBatches:
    QUERIES = ("a*.b", "(a|b)*.c")

    def serve(self, engine, sources):
        return {q: engine.query_batch(q, sources) for q in self.QUERIES}

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_answers_and_counts_match_the_monolithic_engine(self, backend):
        # Answers and the visited counts equal one monolithic run's.
        instance, shard_map, sources = bridged_clusters()
        assert len(sources) > 64
        mono = Engine.open(instance, backend=backend)
        engine = ShardedEngine.open(instance, shard_map=shard_map, backend=backend)
        for query in self.QUERIES:
            reference = mono.query_batch_results(query, sources)
            served = engine.query_batch_results(query, sources)
            for source in sources:
                assert served[source].answers == reference[source].answers
                assert (served[source].visited_pairs, served[source].visited_objects) == (
                    reference[source].visited_pairs, reference[source].visited_objects
                ), (query, source)
        assert self.serve(engine, sources) == self.serve(mono, sources)
        assert engine.stats.visited_pairs == mono.stats.visited_pairs

    @pytest.mark.parametrize("query", QUERIES)
    def test_kernels_agree_on_counts(self, query):
        instance, shard_map, sources = bridged_clusters()
        counters = {}
        for backend in EXECUTOR_BACKENDS:
            engine = ShardedEngine.open(instance, shard_map=shard_map, backend=backend)
            engine.query_batch(query, sources)
            counters[backend] = (
                engine.stats.visited_pairs, engine.stats.visited_objects
            )
        assert len(set(counters.values())) == 1, counters

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_streaming_delivers_each_pair_at_most_once_with_ghosts(self, backend):
        instance, shard_map, sources = bridged_clusters()
        engine = ShardedEngine.open(instance, shard_map=shard_map, backend=backend)
        for query in self.QUERIES:
            delivered: list = []
            final = engine.query_batch_streaming(
                query,
                sources,
                lambda oid, answers: delivered.extend(
                    (oid, answer) for answer in answers
                ),
            )
            assert len(delivered) == len(set(delivered)), query
            assert set(delivered) == {
                (oid, answer) for oid, answers in final.items() for answer in answers
            }, query


class TestOneFixpoint:
    """A sharded evaluation is one executor run over the one graph, traced
    like the monolithic engine's."""

    QUERIES = TestMultiWordBatches.QUERIES

    def traced(self, engine, query, sources):
        previous = set_telemetry_enabled(True)
        try:
            engine.query_batch(query, sources)
        finally:
            set_telemetry_enabled(previous)
        return engine.metrics.tracer.last().spans

    @pytest.mark.parametrize("query", QUERIES)
    def test_one_run_reports_the_kernel_counts(self, query):
        instance, shard_map, sources = bridged_clusters()
        engine = ShardedEngine.open(instance, shard_map=shard_map)
        spans = self.traced(engine, query, sources)
        assert [span.name for span in spans] == [
            "sharded.query", "engine.compile", "engine.run"
        ]
        run = spans[-1]
        assert run.attributes["backend"] == engine.resolved_backend
        assert run.attributes["visited"] == engine.stats.visited_pairs
        for count in ("rounds", "edges_gathered", "peak_frontier_rows"):
            assert run.attributes[count] > 0, count

    def test_steal_events_stay_zero(self):
        instance, shard_map, sources = bridged_clusters()
        engine = ShardedEngine.open(instance, shard_map=shard_map)
        for query in self.QUERIES:
            engine.query_batch(query, sources)
        assert engine.stats.steal_events == 0
        assert engine.stats.local_runs == len(self.QUERIES)

    @pytest.mark.parametrize("entry", ["open", "open_directory", "constructor"])
    def test_steal_threshold_is_not_an_option(self, entry, tmp_path):
        instance, _ = web(20)
        if entry == "open":
            with pytest.raises(TypeError, match="steal_threshold"):
                ShardedEngine.open(instance, shards=2, steal_threshold=2)
        elif entry == "open_directory":
            ShardedEngine.open(instance, shards=2).save(str(tmp_path))
            with pytest.raises(TypeError, match="steal_threshold"):
                ShardedEngine.open(str(tmp_path), steal_threshold=2)
        else:
            with pytest.raises(TypeError, match="steal_threshold"):
                ShardedEngine(instance, shards=2, steal_threshold=2)


# ---------------------------------------------------------------------------
# One compiled graph: the monolithic engine's.
# ---------------------------------------------------------------------------
MAP_KINDS = ("hash-1", "hash-2", "hash-7", "by-site")


def shard_map_of(kind, instance):
    if kind == "by-site":
        return ShardMap.by_site(instance)
    return HashShardMap(int(kind.split("-")[1]))


def lowering_edges(session, expression):
    """The session graph's numpy lowering of ``expression`` as a multiset
    of ``(state, oid) -> (state, oid)`` edges: independent of how either
    graph numbers its nodes and labels."""
    graph = session.graph
    moves = session.compiled(expression).moves
    product = graph.numpy_product_csr(moves)
    n = graph.num_nodes
    indptr, dst = product.indptr.tolist(), product.dst.tolist()
    assert len(indptr) == len(moves) * n + 1
    edges = Counter()
    for key in range(len(moves) * n):
        source = (key // n, graph.oid_of(key % n))
        for target in dst[indptr[key]:indptr[key + 1]]:
            edges[source, (target // n, graph.oid_of(target % n))] += 1
    return edges


def oid_edges(graph):
    """A graph's edges by object and label rather than by id."""
    return {
        (graph.oid_of(source), graph.labels.value_of(label), graph.oid_of(target))
        for source, label, target in graph.iter_edges()
    }


def stale_reopen_with_new_labels(directory, backend="auto"):
    """Six nodes on three explicit shards, an ``a`` chain, saved; then
    ``n1 -z-> n2``, ``n2 -y-> n3`` and ``n2 -z-> n4`` behind the session's
    back and a reopen with ``instance=``: shards 1 and 2 own the new edges
    and are rebuilt, shard 0 loads warm, and the labels ``y`` and ``z``,
    which no file names, join the manifest's order."""
    instance = Instance([(f"n{i}", "a", f"n{i + 1}") for i in range(5)])
    shard_map = ExplicitShardMap({f"n{i}": i % 3 for i in range(6)}, num_shards=3)
    ShardedEngine.open(instance, shard_map=shard_map, backend=backend).save(directory)
    for edge in (("n1", "z", "n2"), ("n2", "y", "n3"), ("n2", "z", "n4")):
        instance.add_edge(*edge)
    engine = ShardedEngine.open(
        directory, instance=instance, shard_map=shard_map, backend=backend
    )
    return instance, engine


def spy_on_rebuilds(monkeypatch, shard_map):
    """The shards whose rows a reopen builds from the instance, in order."""
    rebuilt = []
    build = sharding._instance_rows

    def spy(instance, oids, *rest):
        rebuilt.append({shard_map.shard_of(oid) for oid in oids})
        return build(instance, oids, *rest)

    monkeypatch.setattr(sharding, "_instance_rows", spy)
    return rebuilt


VIEW_EXPRESSIONS = ("(a + b)* c", "a b* (c + d)", "(a + b + c + d)*", "d a")
view_steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "add_node", "add_label", "remove", "compact", "reopen"]),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
    ),
    max_size=6,
)


class TestOneGraph:
    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_graph_is_the_monolithic_graph_cold_and_warm(self, kind, tmp_path):
        instance, _ = web(30)
        instance.add_object("isolated")
        shard_map = shard_map_of(kind, instance)
        monolithic = Engine.open(instance).graph.to_parts()
        engine = ShardedEngine.open(instance, shard_map=shard_map)
        assert type(engine.graph) is CompiledGraph
        assert engine.graph.to_parts() == monolithic
        engine.save(str(tmp_path))
        warm = ShardedEngine.open(str(tmp_path), instance=instance, shard_map=shard_map)
        assert (warm.warm_shards, warm.rebuilt_shards) == (shard_map.num_shards, 0)
        assert warm.graph.to_parts() == monolithic

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_query_all_answers_exactly_the_objects(self, kind, backend):
        instance, _ = web(30)
        instance.add_object("isolated")
        mono = Engine.open(instance, backend=backend)
        engine = ShardedEngine.open(
            instance, shard_map=shard_map_of(kind, instance), backend=backend
        )
        for query in ("a (b + c)*", "%", "(a + b + c)*"):
            answers = engine.query_all(query)
            assert set(answers) == set(instance.objects), query
            assert answers == mono.query_all(query), query
        assert engine.stats.visited_pairs == mono.stats.visited_pairs

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_stale_reopen_with_new_labels_answers_like_the_monolithic_engine(
        self, backend, tmp_path
    ):
        instance, engine = stale_reopen_with_new_labels(str(tmp_path), backend)
        assert (engine.warm_shards, engine.rebuilt_shards) == (1, 2)
        mono = Engine.open(instance, backend=backend)
        sources = sorted(instance.objects, key=repr)
        for query in ("a* z", "y a", "(a + y + z)*", "z* y a*", "a z y"):
            assert engine.query_all(query) == mono.query_all(query), query
            assert engine.query_batch(query, sources) == mono.query_batch(
                query, sources
            ), query
            for source in sources:
                served, reference = engine.query(query, source), mono.query(query, source)
                assert served.answers == reference.answers, (query, source)
                assert {a: len(w) for a, w in served.witness_paths.items()} == {
                    a: len(w) for a, w in reference.witness_paths.items()
                }, (query, source)

    @pytest.mark.skipif(not numpy_available(), reason="the lowering needs numpy")
    def test_stale_reopen_with_new_labels_lowers_like_the_monolithic_engine(
        self, tmp_path
    ):
        instance, engine = stale_reopen_with_new_labels(str(tmp_path), "numpy")
        mono = Engine.open(instance, backend="numpy")
        for query in ("a* z", "y a", "(a + y + z)*", "z* y a*"):
            assert lowering_edges(engine, query) == lowering_edges(mono, query), query

    @pytest.mark.skipif(not numpy_available(), reason="the lowering needs numpy")
    @pytest.mark.parametrize("kind", MAP_KINDS)
    @given(seed=st.integers(0, 2**16), steps=view_steps)
    def test_lowering_equals_the_monolithic_lowering_after_every_step(
        self, kind, seed, steps
    ):
        def check(engine, mono, reopened):
            for expression in VIEW_EXPRESSIONS:
                assert lowering_edges(engine, expression) == lowering_edges(
                    mono, expression
                ), expression

        replay_view_steps(kind, seed, steps, "numpy", check)

    @pytest.mark.parametrize("kind", MAP_KINDS)
    @given(seed=st.integers(0, 2**16), steps=view_steps)
    def test_adjacency_equals_the_monolithic_adjacency_after_every_step(
        self, kind, seed, steps
    ):
        # What the scalar BFS and the packed kernel read, by object and
        # label rather than by id.
        def adjacency(session):
            graph = session.graph
            return Counter(
                (graph.oid_of(node), label, graph.oid_of(target))
                for node in range(graph.num_nodes)
                for lid, label in enumerate(graph.labels_fingerprint())
                for target in graph.successors(node, lid)
            )

        def check(engine, mono, reopened):
            assert adjacency(engine) == adjacency(mono)
            # Edited alike since the cold open, the two are one graph.
            if not reopened:
                assert engine.graph.to_parts() == mono.graph.to_parts()

        replay_view_steps(kind, seed, steps, "packed", check)


def replay_view_steps(kind, seed, steps, backend, check):
    """Drive a sharded session and a monolithic one through ``steps`` —
    edits between existing nodes, to new nodes and under a new label,
    removals, compactions, and reopens after an edit behind the sharded
    session's back (its stale shards rebuild their rows, the new label
    joins the saved order) — and ``check(sharded, monolithic, reopened)``
    after each, ``reopened`` once the sharded session has been reopened."""
    instance, _ = web_like_graph(24, ["a", "b", "c"], seed=seed)
    live = instance.copy()
    shard_map = shard_map_of(kind, live)
    mono = Engine.open(instance, backend=backend)
    engine = ShardedEngine.open(live, shard_map=shard_map, backend=backend)
    fresh = 0
    reopened = False

    def checked(step):
        check(engine, mono, reopened)
        assert engine.graph.num_nodes == len(live), step

    checked("opened")
    with tempfile.TemporaryDirectory() as directory:
        for kind_of_step, first, second in steps:
            nodes = sorted(live.objects, key=repr)
            source = nodes[first % len(nodes)]
            if kind_of_step in ("add", "add_label", "add_node"):
                label = "d" if kind_of_step == "add_label" else "abc"[second % 3]
                if kind_of_step == "add_node":
                    fresh += 1
                    target = f"x{fresh}"
                else:
                    target = nodes[second % len(nodes)]
                mono.add_edge(source, label, target)
                engine.add_edge(source, label, target)
            elif kind_of_step == "remove":
                edges = sorted(live.edges(), key=repr)
                edge = edges[first % len(edges)]
                mono.remove_edge(*edge)
                engine.remove_edge(*edge)
            elif kind_of_step == "compact":
                mono.compact_now()
                engine.compact_now()
            else:
                engine.save(directory)
                fresh += 1
                edge = (source, "zy"[second % 2], f"x{fresh}")
                live.add_edge(*edge)
                mono.add_edge(*edge)
                engine = ShardedEngine.open(
                    directory, instance=live, shard_map=shard_map, backend=backend
                )
                reopened = True
            checked((kind_of_step, first, second))


# ---------------------------------------------------------------------------
# Mutation.
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
        assert sharded.stats.graph_builds == 1
        assert (sharded.warm_shards, sharded.rebuilt_shards) == (0, 3)

    def test_new_label_is_served(self):
        instance, _ = web(20)
        sharded = ShardedEngine.open(instance, shards=3)
        sharded.add_edge("p0", "zz", "p9")
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

    def test_out_of_band_instance_mutation_rebuilds(self):
        instance, _ = web(12)
        sharded = ShardedEngine.open(instance, shards=2)
        instance.add_edge("p0", "q", "p7")  # behind the engine's back
        mono = Engine.open(instance.copy())
        assert sharded.query_all("q") == mono.query_all("q")
        assert sharded.graph.to_parts() == mono.graph.to_parts()
        assert (sharded.stats.graph_builds, sharded.rebuilt_shards) == (2, 4)

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
        _, engine, _, directory = self.sharded_setup(tmp_path)
        names = sorted(os.listdir(directory))
        assert MANIFEST_NAME in names
        assert sum(name.endswith(".snap") for name in names) == 4
        with open(os.path.join(directory, MANIFEST_NAME), encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["format_version"] == 3
        assert manifest["shard_map"]["kind"] == "hash"
        assert len(manifest["shards"]) == 4
        assert manifest["labels"] == list(engine.graph.labels_fingerprint())
        assert sorted(manifest["labels"]) == sorted("abc")
        assert manifest["nodes"] == engine.graph.num_nodes
        assert sum(entry["objects"] for entry in manifest["shards"]) == 40
        assert sum(entry["edges"] for entry in manifest["shards"]) == (
            engine.graph.edge_count()
        )

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

    def test_single_stale_shard_recompiles_alone(self, tmp_path, monkeypatch):
        instance, sharded, _, directory = self.sharded_setup(tmp_path)
        shard_map = sharded.shard_map
        victim = next(
            oid
            for oid in sorted(instance.objects, key=repr)
            if shard_map.shard_of(oid) == 2 and instance.out_degree(oid)
        )
        # One object's description changes, under a label no file names.
        label, destination = instance.out_edges(victim)[0]
        instance.remove_edge(victim, label, destination)
        instance.add_edge(victim, "zz", destination)
        rebuilt = spy_on_rebuilds(monkeypatch, shard_map)
        stale = ShardedEngine.open(directory, instance=instance)
        assert stale.rebuilt_shards == 1 and stale.warm_shards == 3
        assert rebuilt == [{2}]
        assert stale.stats.graph_builds == 0
        mono = Engine.open(instance)
        assert list(stale.graph.nodes) == list(mono.graph.nodes)
        assert oid_edges(stale.graph) == oid_edges(mono.graph)
        assert stale.query_all("a (b + c)* zz") == mono.query_all("a (b + c)* zz")

    def test_reopen_without_a_saved_object_rebuilds_whole(self, tmp_path):
        # An edge list that lost an object's last edge drops the object:
        # no saved node id can be kept, so every shard is built again.
        instance, _, _, directory = self.sharded_setup(tmp_path)
        gone = sorted(instance.objects, key=repr)[-1]
        survivor = Instance(
            edge for edge in instance.edges() if gone not in (edge[0], edge[2])
        )
        assert len(survivor) < len(instance)
        reopened = ShardedEngine.open(directory, instance=survivor)
        assert (reopened.warm_shards, reopened.rebuilt_shards) == (0, 4)
        assert reopened.graph.to_parts() == Engine.open(survivor).graph.to_parts()

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

    def test_a_label_left_without_edges_saves_and_reopens(self, tmp_path):
        # Interned after the build and emptied again: compaction has nothing
        # to fold, so the label has no CSR rows at all when the rows leave.
        instance, _ = web(12)
        sharded = ShardedEngine.open(instance, shards=2)
        sharded.add_edge("p0", "yy", "p1")
        sharded.remove_edge("p0", "yy", "p1")
        sharded.save(str(tmp_path))
        warm = ShardedEngine.open(str(tmp_path), instance=instance)
        assert warm.warm_shards == 2
        mono = Engine.open(instance)
        assert oid_edges(warm.graph) == oid_edges(mono.graph)
        assert warm.query_all("a* yy") == mono.query_all("a* yy")

    def test_warm_query_cache_survives_save_and_open(self, tmp_path):
        instance, _, reference, directory = self.sharded_setup(tmp_path)
        warm = ShardedEngine.open(directory, instance=instance)
        assert warm.query_all("a (b + c)*") == reference
        assert (warm.compiler.hits, warm.compiler.misses) == (1, 0)

    def test_a_version_2_directory_is_refused(self, tmp_path):
        _, _, _, directory = self.sharded_setup(tmp_path)
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["format_version"] = 2
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ReproError, match="unsupported sharded manifest version 2"):
            ShardedEngine.open(directory)


def forge(directory, shard, change):
    """Rewrite shard file ``shard`` as ``change(header, nodes, chunks)``
    leaves it, with a valid digest that the manifest records: a file that
    only the checks after the digest can refuse."""
    path = os.path.join(directory, f"shard-{shard:04d}.snap")
    header, nodes, chunks = read_container(path)
    chunks = [list(chunk) for chunk in chunks]
    change(header, nodes, chunks)
    blob = encode_container(header, nodes, chunks, 2**40)
    with open(path, "wb") as handle:
        handle.write(blob)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["shards"][shard]["digest"] = blob[-16:].hex()
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest


class TestForgedShardFiles:
    """A shard file whose digest holds but whose ids leave the manifest's
    tables is a ReproError, never an IndexError or a wrong graph."""

    @pytest.fixture
    def saved(self, tmp_path):
        instance, _ = web(30, seed=3)
        ShardedEngine.open(instance, shards=2).save(str(tmp_path))
        return str(tmp_path), instance

    @pytest.mark.parametrize("with_instance", [False, True], ids=["alone", "instance"])
    def test_a_target_outside_the_node_table(self, saved, with_instance):
        directory, instance = saved

        def change(header, nodes, chunks):
            count = header["labels"]
            target_chunk = next(chunk for chunk in chunks[1 + count :] if chunk)
            target_chunk[0] = manifest_nodes

        manifest_nodes = len(instance)
        forge(directory, 1, change)
        with pytest.raises(ReproError, match=f"node id {manifest_nodes}, outside"):
            ShardedEngine.open(directory, instance=instance if with_instance else None)

    def test_an_owned_node_outside_the_node_table(self, saved):
        directory, instance = saved

        def change(header, nodes, chunks):
            chunks[0][-1] = len(instance) + 5

        forge(directory, 0, change)
        with pytest.raises(ReproError, match=f"node id {len(instance) + 5}, outside"):
            ShardedEngine.open(directory, instance=instance)

    def test_a_label_outside_the_label_table(self, saved):
        directory, instance = saved

        def change(header, nodes, chunks):
            count = header["labels"]
            header["labels"] = count + 1
            rows = len(chunks[0])
            chunks[1 + count : 1 + count] = [[0] * rows]  # one more degree chunk
            chunks[2 + 2 * count : 2 + 2 * count] = [[]]  # and its targets

        forge(directory, 1, change)
        with pytest.raises(ReproError, match="label id 3, outside the manifest's 3 labels"):
            ShardedEngine.open(directory, instance=instance)

    def test_two_files_numbering_one_node(self, saved):
        directory, instance = saved

        def change(header, nodes, chunks):
            chunks[0][0] = stolen

        stolen = read_container(os.path.join(directory, "shard-0000.snap"))[2][0][0]
        forge(directory, 1, change)
        with pytest.raises(ReproError, match="do not number the nodes once each"):
            ShardedEngine.open(directory, instance=instance)

    def test_rows_that_do_not_add_up(self, saved):
        directory, instance = saved

        def change(header, nodes, chunks):
            chunks[1][0] += 1  # one more edge than the targets hold

        forge(directory, 0, change)
        with pytest.raises(ReproError, match="rows that do not add up"):
            ShardedEngine.open(directory, instance=instance)

    def test_one_object_under_two_node_ids(self, saved):
        directory, instance = saved

        def change(header, nodes, chunks):
            nodes[1] = nodes[0]

        forge(directory, 1, change)
        with pytest.raises(ReproError, match="one object under two node ids"):
            ShardedEngine.open(directory)

    def test_a_manifest_listing_a_label_twice(self, saved):
        directory, instance = saved
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["labels"][1] = manifest["labels"][0]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ReproError, match="lists a label twice"):
            ShardedEngine.open(directory, instance=instance)
