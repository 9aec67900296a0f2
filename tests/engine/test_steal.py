"""Superstep work-stealing: the StealQueue and the chunked fixpoint path.

The queue is a plain unit-test surface.  The chunked path is pinned by
construction: a skewed workload (one shard owning every second-word source)
evaluated with stealing on, stealing off, no scheduler at all, and the
monolithic engine must all produce identical answers — the word-column
chunks are exact self-contained sub-fixpoints, so chunking is purely an
execution-order choice.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine, ShardedEngine, set_telemetry_enabled
from repro.engine.executor import numpy_available
from repro.engine.serving import StealQueue
from repro.engine.sharding import ExplicitShardMap
from repro.exceptions import ReproError
from repro.graph import Instance, web_like_graph


class TestStealQueue:
    def test_own_tasks_drain_fifo(self):
        queue = StealQueue()
        order = []
        queue.put(0, lambda: order.append("first"))
        queue.put(0, lambda: order.append("second"))
        own, stolen = queue.drain(0)
        assert (own, stolen) == (2, 0)
        assert order == ["first", "second"]
        assert queue.steals == 0
        assert queue.puts == 2

    def test_foreign_claim_steals_from_the_tail(self):
        queue = StealQueue()
        order = []
        queue.put(0, lambda: order.append("older"))
        queue.put(0, lambda: order.append("newest"))
        owner, task = queue.claim(1)
        task()
        # A thief takes the most recently queued task (the owner is working
        # the queue from the front).
        assert owner == 0
        assert order == ["newest"]
        assert queue.steals == 1
        own, stolen = queue.drain(0)
        assert (own, stolen) == (1, 0)
        assert order == ["newest", "older"]

    def test_owner_preferred_over_stealing(self):
        queue = StealQueue()
        ran = []
        queue.put(0, lambda: ran.append(0))
        queue.put(1, lambda: ran.append(1))
        own, stolen = queue.drain(1)
        # Shard 1 runs its own task first, then steals shard 0's.
        assert (own, stolen) == (1, 1)
        assert ran == [1, 0]

    def test_claim_on_empty_queue(self):
        assert StealQueue().claim(0) is None


class TestStealThresholdValidation:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_word_counts(self, bad):
        instance, _ = web_like_graph(20, ["a", "b"], seed=3)
        with pytest.raises(ReproError, match="steal_threshold"):
            ShardedEngine.open(instance, shards=2, steal_threshold=bad)

    def test_none_disables(self):
        instance, _ = web_like_graph(20, ["a", "b"], seed=3)
        engine = ShardedEngine.open(instance, shards=2, steal_threshold=None)
        assert engine.steal_threshold is None

    def test_setter_validates_too(self):
        instance, _ = web_like_graph(20, ["a", "b"], seed=3)
        engine = ShardedEngine.open(instance, shards=2)
        assert engine.steal_threshold == 2
        with pytest.raises(ReproError, match="steal_threshold"):
            engine.steal_threshold = 0
        engine.steal_threshold = None
        assert engine.steal_threshold is None


def skewed_fixture(cluster_nodes=60, clusters=2, chain_depth=30, seed=5):
    """Two web clusters plus a deep ``a``-chain owned by shard 0, with 80
    sources laid out so mask word 0 spans both shards and word 1 is the
    chain (shard 0 only) — the smallest shape where word-column chunking
    and stealing can engage (>64 sources, several shards active)."""
    labels = ["a", "b", "c"]
    instance = Instance()
    assignment: dict = {}
    for cluster in range(clusters):
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
    shard_map = ExplicitShardMap(assignment, num_shards=clusters)
    per_cluster = []
    for cluster in range(clusters):
        pool = sorted(
            oid for oid in instance.objects
            if assignment[oid] == cluster and "chain" not in oid
        )
        per_cluster.append(pool[:32])
    word0 = [per_cluster[i % clusters][i // clusters] for i in range(64)]
    word1 = [f"s0:chain{i:03d}" for i in range(16)]
    return instance, shard_map, word0 + word1


@pytest.mark.skipif(not numpy_available(), reason="chunking is numpy-only")
class TestChunkedStealParity:
    QUERIES = ("a*.b", "(a|b)*.c")

    def serve(self, engine, sources):
        return {q: engine.query_batch(q, sources) for q in self.QUERIES}

    def test_all_arms_agree_and_stealing_fires(self):
        instance, shard_map, sources = skewed_fixture()
        reference = self.serve(Engine.open(instance), sources)

        stealing = ShardedEngine.open(
            instance, shard_map=shard_map, concurrency=2
        )
        disabled = ShardedEngine.open(
            instance, shard_map=shard_map, concurrency=2, steal_threshold=None
        )
        sequential = ShardedEngine.open(instance, shard_map=shard_map)

        assert self.serve(stealing, sources) == reference
        assert self.serve(disabled, sources) == reference
        assert self.serve(sequential, sources) == reference

        # The chunked engine queued word-column tasks and some were claimed
        # by a non-owner; the other arms must not have touched the machinery.
        # Whether a particular evaluation steals depends on thread timing
        # (a worker may drain its own queue before its peer arrives), so
        # accumulate over repeated identical runs — the counter is
        # cumulative and one steal anywhere proves the path.
        for _ in range(10):
            if stealing.stats.steal_events:
                break
            assert self.serve(stealing, sources) == reference
        assert stealing.stats.steal_events > 0
        assert disabled.stats.steal_events == 0
        assert sequential.stats.steal_events == 0
        assert stealing.stats.superstep_skew_ratio >= 1.0

    def test_streaming_parity_through_the_chunked_path(self):
        instance, shard_map, sources = skewed_fixture()
        stealing = ShardedEngine.open(
            instance, shard_map=shard_map, concurrency=2
        )
        for query in self.QUERIES:
            streamed: dict = {}
            final = stealing.query_batch_streaming(
                query,
                sources,
                lambda oid, answers: streamed.setdefault(oid, set()).update(
                    answers
                ),
            )
            for oid, answers in final.items():
                assert streamed.get(oid, set()) == set(answers), (query, oid)

    def test_chunk_runs_report_kernel_counts_on_the_shard_span(self):
        # Chunks go through the dispatcher like every other run, and the
        # barrier totals their work counts onto the owning shard's span.
        instance, shard_map, sources = skewed_fixture()
        engine = ShardedEngine.open(instance, shard_map=shard_map, concurrency=2)
        previous = set_telemetry_enabled(True)
        try:
            engine.query_batch("a*.b", sources)
        finally:
            set_telemetry_enabled(previous)
            engine.close()
        spans = engine.metrics.tracer.last().spans
        [first] = [
            span
            for span in spans
            if span.name == "sharded.superstep" and span.attributes["round"] == 1
        ]
        fixpoints = [
            span
            for span in spans
            if span.parent_id == first.span_id and span.name == "sharded.local_fixpoint"
        ]
        # Round one seeds word 0 on both shards and word 1 on shard 0, so
        # it is chunked, and both shards' spans total their own chunks —
        # whichever worker ended up running them.
        assert sorted(span.attributes["shard"] for span in fixpoints) == [0, 1]
        for span in fixpoints:
            assert "chunks" in span.attributes and "stolen" in span.attributes
            assert span.attributes["edges_gathered"] > 0
            assert span.attributes["rounds"] > 0
            assert span.attributes["peak_frontier_rows"] > 0

    def bridged_fixture(self):
        """``skewed_fixture`` plus cross-cluster links, so every shard holds
        ghost nodes and the supersteps exchange facts."""
        instance, shard_map, sources = skewed_fixture()
        for index in range(0, 30, 3):
            instance.add_edge(f"s0:p{index}", "a", f"s1:p{index + 1}")
            instance.add_edge(f"s1:p{index + 2}", "b", f"s0:p{index}")
        instance.add_edge("s0:chain005", "a", "s1:p7")
        return instance, shard_map, sources

    def test_gather_over_steal_merged_frontiers_with_ghosts(self):
        # The numpy gather reads the rows the chunks reported; the python
        # kernel's set-based gather behind the same call is the reference —
        # answers and the visited counts (owned pairs and objects only: a
        # ghost's facts are its owner's) must agree through fresh, continued
        # and steal-merged frontiers alike.
        instance, shard_map, sources = self.bridged_fixture()
        arms = {
            "stealing": dict(concurrency=2),
            "continued": dict(concurrency=2, steal_threshold=None),
            "sequential": dict(),
            "reference": dict(backend="python"),
        }
        observed = {}
        for name, options in arms.items():
            engine = ShardedEngine.open(instance, shard_map=shard_map, **options)
            try:
                answers = self.serve(engine, sources)
                last = engine.stats.last_run
                assert last.supersteps > 1 and last.exchanged_facts > 0, name
                observed[name] = (
                    answers, engine.stats.visited_pairs, engine.stats.visited_objects
                )
            finally:
                engine.close()
        assert observed["reference"][0] == self.serve(Engine.open(instance), sources)
        for name in ("stealing", "continued", "sequential"):
            assert observed[name] == observed["reference"], name

    @pytest.mark.parametrize("steal_threshold", [2, None])
    def test_exchange_counters_agree_across_kernels(self, steal_threshold):
        # Over 64 sources, so with a threshold the numpy arm chunks and
        # steals; per query, every kernel must take the same supersteps and
        # local runs, ship the same facts and visit the same pairs/objects.
        instance, shard_map, sources = self.bridged_fixture()
        assert len(sources) > 64
        for query in self.QUERIES:
            counters = {}
            for backend in ("python", "packed", "numpy"):
                engine = ShardedEngine.open(
                    instance, shard_map=shard_map, backend=backend,
                    concurrency=2, steal_threshold=steal_threshold,
                )
                try:
                    engine.query_batch(query, sources)
                finally:
                    engine.close()
                last, stats = engine.stats.last_run, engine.stats
                counters[backend] = (
                    last.supersteps, last.local_runs, last.exchanged_facts,
                    stats.visited_pairs, stats.visited_objects,
                )
            assert len(set(counters.values())) == 1, (query, counters)
            assert counters["numpy"][2] > 0, query

    def test_streaming_delivers_each_pair_at_most_once_with_ghosts(self):
        instance, shard_map, sources = self.bridged_fixture()
        engine = ShardedEngine.open(instance, shard_map=shard_map, concurrency=2)
        try:
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
        finally:
            engine.close()

    def test_narrow_batches_never_chunk(self):
        # One mask word: below every threshold, so the monolithic local
        # fixpoint serves and no steal events can appear.
        instance, shard_map, sources = skewed_fixture()
        engine = ShardedEngine.open(
            instance, shard_map=shard_map, concurrency=2
        )
        engine.query_batch("a*.b", sources[:40])
        assert engine.stats.steal_events == 0
