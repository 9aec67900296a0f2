"""clustered-sharded-crpq: conjunctive queries over four cluster shards."""

from __future__ import annotations

from time import perf_counter

from harness import sync_lap
from repro.engine import (
    Engine,
    ExplicitShardMap,
    PlanExecution,
    ShardedEngine,
    nested_loop_rows,
    parse_crpq,
)
from repro.graph import Instance, web_like_graph
from repro.query.evaluation import evaluate_baseline

from .base import (
    DATASET_SEED,
    ORACLE_MISMATCH,
    Workload,
    exact_mix,
    hit_share,
    mean,
)

LABELS = ("l0", "l1", "l2")

#: Each template opens with a closure atom that runs to the gateways of the
#: source's cluster and across them, so every op exchanges frontier facts at
#: a superstep barrier; the later atoms join on what came back.  Measured
#: 27-41 ms p50 each: no percentile separates two cost classes.
TEMPLATES = (
    "MATCH x -[(l0 + l1)* gw]-> y, y -[l2]-> z WHERE x = {source} RETURN z",
    "MATCH x -[(l0 + l1)* gw l2]-> y, y -[l0]-> z WHERE x = {source} RETURN z",
    "MATCH x -[(l0 + l1)* l2 gw]-> y, y -[l0 + l1]-> z, z -[l2]-> w "
    "WHERE x = {source} RETURN w",
)


def rows_digest(rows: tuple) -> tuple:
    return (len(rows), hash(rows))


class ClusteredShardedCrpq(Workload):
    name = "clustered-sharded-crpq"
    lap_ops = 120
    #: Two scheduler threads under one GIL: 10 seeds alternating, the pinned
    #: runs read 43.1 ops/s with a spread of 0.045, the free ones 36.8 with
    #: 0.21 (the same cross-vCPU hand-offs as ``WebServedPoint``).
    pin_one_cpu = True
    SNAPSHOT = "shards"

    CLUSTERS = 4
    CLUSTER_NODES = 4_000
    #: Gateway edges leaving each cluster.
    GATEWAYS = 320

    def generate(self, tmpdir) -> None:
        import random

        rng = random.Random(DATASET_SEED)
        per_cluster = 60 if self.smoke else self.CLUSTER_NODES
        gateways = 12 if self.smoke else self.GATEWAYS
        instance = Instance()
        assignment = {}
        for cluster in range(self.CLUSTERS):
            part, _root = web_like_graph(per_cluster, LABELS, seed=rng.randrange(1 << 30))
            for oid in sorted(part.objects):
                source = instance.add_object(f"c{cluster}:{oid}")
                assignment[source] = cluster
                for label, destination in part.out_edges(oid):
                    instance.add_edge(source, label, f"c{cluster}:{destination}")
        for cluster in range(self.CLUSTERS):
            others = [c for c in range(self.CLUSTERS) if c != cluster]
            for _ in range(gateways):
                instance.add_edge(
                    f"c{cluster}:p{rng.randrange(per_cluster)}", "gw",
                    f"c{rng.choice(others)}:p{rng.randrange(per_cluster)}",
                )
        self.instance = instance
        self.shard_map = ExplicitShardMap(assignment, self.CLUSTERS)
        # Sources with two or more l0/l1 links: their closure reaches the
        # cluster's core, so ops cost alike (a dead-end source would finish
        # in a third of the time and split the latency distribution).
        self.sources = sorted(
            oid for oid in instance.objects
            if sum(label in ("l0", "l1") for label, _d in instance.out_edges(oid)) >= 2
        )

    def open_cold(self, tmpdir) -> None:
        self.cold = ShardedEngine.open(
            self.instance, shard_map=self.shard_map, concurrency=2
        )

    def open_warm(self, tmpdir) -> None:
        self.cold.close()
        self.engine = ShardedEngine.open(
            tmpdir / self.SNAPSHOT, instance=self.instance, shard_map=self.shard_map,
            concurrency=2,
        )
        del self.cold

    def stop(self) -> None:
        self.engine.close()

    def make_ops(self, count: int) -> list:
        rng = self.rng("ops")
        templates = exact_mix(rng, TEMPLATES, [1] * len(TEMPLATES), count)
        return [
            template.format(source=rng.choice(self.sources)) for template in templates
        ]

    def oracle(self, ops: list) -> dict:
        rng = self.rng("oracle")

        def evaluate(expression, source):
            return set(evaluate_baseline(expression, source, self.instance).answers)

        expected = {}
        for index in rng.sample(range(len(ops)), min(3, len(ops))):
            result = self.engine.query_conjunctive(ops[index])
            rows = nested_loop_rows(parse_crpq(ops[index]), self.instance, evaluate)
            expected[index] = (
                rows_digest(result.rows) if rows == result.rows else ORACLE_MISMATCH
            )
        return expected

    def lap(self, ops: list):
        engine = self.engine
        return sync_lap(ops, lambda text: engine.query_conjunctive(text).rows,
                        rows_digest)

    def counts(self) -> dict:
        stats = self.engine.stats
        return {
            "supersteps": stats.supersteps,
            "exchanged_facts": stats.exchanged_facts,
            "visited_pairs": stats.visited_pairs,
            "join_rows": self.engine.telemetry().get("crpq_join_rows", 0),
            "compile_hits": sum(e.compiler.hits for e in self.engine.shard_engines),
            "compile_misses": sum(e.compiler.misses for e in self.engine.shard_engines),
        }

    def trace(self, ops: list, recorder, facade: list) -> dict:
        engine = self.engine
        monolithic = Engine.open(self.instance)
        stats = engine.stats
        before = (stats.supersteps, stats.local_runs, stats.exchanged_facts,
                  stats.steal_events)
        fixpoints_before = engine.telemetry()["sharded_local_fixpoint_seconds"]["sum"]
        failed = 0
        rows_out = pairs = kept = 0
        skews = []
        atoms = []
        reference = facade[0].digests
        for index, text in enumerate(ops):
            with recorder.span("op", index):
                with recorder.span("conjunctive.prepare"):
                    crpq = engine.prepare_conjunctive(text)
                with recorder.span("conjunctive.plan"):
                    plan = engine.plan_conjunctive(crpq)
                execution = PlanExecution(plan)
                while True:
                    with recorder.span("conjunctive.pending"):
                        request = execution.pending()
                    if request is None:
                        break
                    with recorder.span("conjunctive.atom_eval"):
                        answers = engine.query_batch(request.expression, request.sources)
                    skews.append(stats.superstep_skew_ratio)
                    atoms.append((request.expression, request.sources))
                    with recorder.span("conjunctive.join_feed"):
                        step = execution.feed(answers)
                    pairs += step.pairs
                    kept += step.rows_out
                with recorder.span("conjunctive.result_rows"):
                    rows = execution.result_rows()
            rows_out += len(rows)
            failed += rows_digest(rows) != reference[index]
        after = (stats.supersteps, stats.local_runs, stats.exchanged_facts,
                 stats.steal_events)
        fixpoint_s = (
            engine.telemetry()["sharded_local_fixpoint_seconds"]["sum"] - fixpoints_before
        )
        supersteps, local_runs, exchanged, steals = (
            b - a for a, b in zip(before, after)
        )
        # The same atoms on one monolithic engine over the same instance.
        for expression, sources in atoms[:8]:
            monolithic.query_batch(expression, sources)
        start = perf_counter()
        for expression, sources in atoms:
            monolithic.query_batch(expression, sources)
        monolithic_s = perf_counter() - start
        atom_s = recorder.total("conjunctive.atom_eval")
        return {
            "_failed": failed,
            "conjunctive.plan_ms": mean(recorder.durations("conjunctive.plan")) * 1e3,
            "conjunctive.atom_eval_ms": atom_s / len(ops) * 1e3,
            "conjunctive.join_feed_ms":
                recorder.total("conjunctive.join_feed") / len(ops) * 1e3,
            "conjunctive.rows_out_per_op": rows_out / len(ops),
            "conjunctive.pairs_per_row": pairs / max(1, kept),
            "sharding.supersteps_per_op": supersteps / len(ops),
            "sharding.local_runs_per_op": local_runs / len(ops),
            "sharding.exchanged_facts_per_op": exchanged / len(ops),
            "sharding.skew_ratio": mean(skews),
            "sharding.steal_events": float(steals),
            "sharding.overhead_ratio": atom_s / monolithic_s,
            # Time inside the shards' local fixpoints, from the session's own
            # histogram: they run on scheduler threads inside query_batch.
            "executor.run_batch_ms": fixpoint_s / len(ops) * 1e3,
            "compiled_query.cache_hit_share": hit_share(facade[0].counts),
        }
