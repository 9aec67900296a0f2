"""Unit tests for the sharded engine layer (``repro.engine.sharding``).

Shard maps, partitioning, the subset CSR build, the shared label universe,
the :class:`ShardView` every sharded evaluation runs on (its numbering, its
lowering against the monolithic one, one label order on every shard), sharded
evaluation (answers, witnesses, stats, multi-word batches), mutation
routing, and per-shard snapshot persistence — including the headline
property that a single stale shard recompiles alone while every warm shard
loads from disk.
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
    partition_instance,
    set_telemetry_enabled,
    shard_graph,
)
from repro.engine.session import Session
from repro.engine.sharding import MANIFEST_NAME, ShardView
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

    def test_describe_mentions_shards_and_backend_runs(self):
        instance, _ = web(10)
        sharded = ShardedEngine.open(instance, shards=2)
        sharded.query_batch("a b", sorted(instance.objects, key=repr)[:4])
        text = sharded.describe()
        assert "shards: 2 (0 warm-started, 2 rebuilt)" in text
        assert f"backend runs: {sharded.resolved_backend}=1" in text


class TestSessionParity:
    """Both session kinds are one :class:`Session` API and one evaluator,
    over two kinds of graph."""

    API = (
        "query", "answer_set", "query_batch", "query_batch_streaming",
        "query_batch_results", "query_all", "describe", "close",
        "telemetry", "as_server", "compiled",
    )
    # The evaluation itself: one compile and one executor run per call.
    EVALUATION = (
        "_compiled_on", "_query_single", "_query_batch", "_query_batch_results",
        "_query_all",
    )
    # What a host may define for itself: its lifecycle and mutation code,
    # and the graph it evaluates on with the compiler that lowers for it.
    HOST_OVERRIDES = {
        "open", "save", "refresh", "add_edge", "remove_edge", "compact_now",
        "auto_compact_ratio", "graph", "compiler",
    }

    @pytest.mark.parametrize("host", [Engine, ShardedEngine])
    def test_api_is_defined_once_on_the_base(self, host):
        for name in self.API:
            owners = [cls for cls in host.__mro__ if name in vars(cls)]
            assert owners == [Session], (host.__name__, name, owners)

    @pytest.mark.parametrize("host", [Engine, ShardedEngine])
    def test_evaluation_is_defined_once_on_the_base(self, host):
        for name in self.EVALUATION:
            owners = [cls for cls in host.__mro__ if name in vars(cls)]
            assert owners == [Session], (host.__name__, name, owners)

    def test_hosts_share_no_public_method_beyond_the_override_list(self):
        def public(cls):
            return {
                name for name in vars(cls)
                if not name.startswith("_") and not name.isupper()
            }

        assert public(Engine) & public(ShardedEngine) <= self.HOST_OVERRIDES


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
        # The shard engines evaluate nothing themselves.
        for engine in sharded.shard_engines:
            assert engine.stats.backend_runs == {}

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
    shard 0 and cross-cluster links, so every shard holds ghost nodes and
    answers cross shards both ways.  The 80 sources span two mask words:
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
        # Answers and the visited counts (owned pairs and objects only: a
        # ghost's facts are its owner's) equal one monolithic run's.
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
    """A sharded evaluation is one executor run over the view, traced like
    the monolithic engine's."""

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
# The shard view: one graph over the shard graphs.
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


def stale_reopen_with_new_labels(directory, backend="auto"):
    """Six nodes on three explicit shards, an ``a`` chain, saved; then
    ``n1 -z-> n2``, ``n2 -y-> n3`` and ``n2 -z-> n4`` behind the session's
    back and a reopen with ``instance=``.  Shard 1 rebuilds and meets ``z``
    before ``y`` in its edges, shard 2 rebuilds, and warm shard 0 loads the
    manifest's ``('a',)``: left to their own edges, shard 1 would intern
    ``('a', 'z', 'y')`` against the others' ``('a', 'y', 'z')``."""
    instance = Instance([(f"n{i}", "a", f"n{i + 1}") for i in range(5)])
    shard_map = ExplicitShardMap({f"n{i}": i % 3 for i in range(6)}, num_shards=3)
    ShardedEngine.open(instance, shard_map=shard_map, backend=backend).save(directory)
    for edge in (("n1", "z", "n2"), ("n2", "y", "n3"), ("n2", "z", "n4")):
        instance.add_edge(*edge)
    engine = ShardedEngine.open(
        directory, instance=instance, shard_map=shard_map, backend=backend
    )
    return instance, engine


VIEW_EXPRESSIONS = ("(a + b)* c", "a b* (c + d)", "(a + b + c + d)*", "d a")
view_steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "add_node", "add_label", "remove", "compact", "reopen"]),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
    ),
    max_size=6,
)


class TestShardView:
    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_ids_are_exactly_the_instance_objects(self, kind):
        instance, _ = web(30)
        instance.add_object("isolated")
        engine = ShardedEngine.open(instance, shard_map=shard_map_of(kind, instance))
        view = engine.graph
        assert view.num_nodes == len(instance)
        assert set(view.nodes) == set(instance.objects)
        # Numbered like a monolithic build: sorted by ``repr``.
        assert list(view.nodes) == sorted(instance.objects, key=repr)
        # Every shard node — owned or ghost — reads as its object's one id.
        for shard, local in enumerate(engine.shard_engines):
            for node, oid in enumerate(local.graph.nodes):
                assert view.node_id(oid) is not None
                targets = {
                    view.oid_of(target)
                    for label in range(view.num_labels)
                    for target in view.successors(view.node_id(oid), label)
                }
                assert targets == {
                    destination for _label, destination in instance.out_edges(oid)
                }, (shard, oid)

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
    def test_no_ghost_is_a_source_an_answer_or_a_counted_pair(self, backend):
        # ``v`` lives on shard 1 and is a ghost on shard 0; ``w`` the other
        # way round.  Each is one node of the view, counted once.
        instance = Instance([("u", "a", "v"), ("v", "b", "w"), ("w", "a", "v")])
        shard_map = ExplicitShardMap({"u": 0, "v": 1, "w": 0}, num_shards=2)
        engine = ShardedEngine.open(instance, shard_map=shard_map, backend=backend)
        mono = Engine.open(instance, backend=backend)
        assert engine.graph.num_nodes == 3
        assert sum(local.graph.num_nodes for local in engine.shard_engines) == 5
        for source in ("u", "v", "w"):
            for query in ("(a b)*", "a (b a)*", "(a + b)*"):
                served = engine.query(query, source)
                reference = mono.query(query, source)
                assert served.answers == reference.answers, (query, source)
                assert (served.visited_pairs, served.visited_objects) == (
                    reference.visited_pairs, reference.visited_objects
                ), (query, source)
        batch = engine.query_batch_results("(a + b)*", ["u", "v", "w"])
        assert all(result.visited_objects == 3 for result in batch.values())

    def test_a_stale_reopen_keeps_one_label_order(self, tmp_path):
        _, engine = stale_reopen_with_new_labels(str(tmp_path))
        assert [local.graph.labels_fingerprint() for local in engine.shard_engines] == [
            ("a", "y", "z")
        ] * 3
        assert engine.graph.labels_fingerprint() == ("a", "y", "z")
        # Shards 1 and 2 own the new edges and rebuild; shard 0 stays warm.
        assert engine.rebuilt_shards == 2 and engine.warm_shards == 1

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_stale_reopen_with_new_labels_answers_like_the_monolithic_engine(
        self, backend, tmp_path
    ):
        instance, engine = stale_reopen_with_new_labels(str(tmp_path), backend)
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

    def test_a_shard_in_another_label_order_is_refused(self):
        # The view reads every shard's label ids as its own, so a shard
        # interning the same labels in another order would read wrong edges.
        first = CompiledGraph.from_instance(Instance([("u", "y", "v")]), labels=["y", "z"])
        second = CompiledGraph.from_instance(Instance([("v", "z", "u")]), labels=["z", "y"])
        owner = {"u": 0, "v": 1}.__getitem__
        with pytest.raises(ReproError, match="not in the session's order"):
            ShardView([first, second], ["y", "z"], owner)

    @pytest.mark.skipif(not numpy_available(), reason="the lowering needs numpy")
    @pytest.mark.parametrize("kind", MAP_KINDS)
    @given(seed=st.integers(0, 2**16), steps=view_steps)
    def test_lowering_equals_the_monolithic_lowering_after_every_step(
        self, kind, seed, steps
    ):
        def check(engine, mono):
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

        def check(engine, mono):
            assert adjacency(engine) == adjacency(mono)

        replay_view_steps(kind, seed, steps, "packed", check)


def replay_view_steps(kind, seed, steps, backend, check):
    """Drive a sharded session and a monolithic one through ``steps`` —
    edits between existing nodes, to new nodes and under a new label,
    removals, compactions, and reopens after an edit behind the sharded
    session's back (its stale shards rebuild, interning the new label
    first) — and ``check(sharded, monolithic)`` after each."""
    instance, _ = web_like_graph(24, ["a", "b", "c"], seed=seed)
    live = instance.copy()
    shard_map = shard_map_of(kind, live)
    mono = Engine.open(instance, backend=backend)
    engine = ShardedEngine.open(live, shard_map=shard_map, backend=backend)
    fresh = 0

    def checked(step):
        check(engine, mono)
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
            checked((kind_of_step, first, second))


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
