"""web-kernel-batch: the executors and the CSR do nearly all the work."""

from __future__ import annotations

from time import perf_counter

from harness import answers_digest, sync_lap
from repro.engine import Engine, run_batch

from .base import (
    ORACLE_MISMATCH,
    Workload,
    baseline_agrees,
    decomposed_read,
    hit_share,
    mean,
    web_graph,
)


def first_answer_ms(engine: Engine, expression: str, batches) -> float:
    """Mean time from run start to the first ``answer_sink`` call."""
    compiled = engine.compiled(expression)
    graph = engine.graph
    delays = []
    for sources in batches:
        node_ids = [graph.node_id(source) for source in sources]
        first: "list[float]" = []

        def sink(_bit, _nodes, first=first):
            if not first:
                first.append(perf_counter())

        start = perf_counter()
        run_batch(graph, compiled, node_ids, backend=engine.backend, answer_sink=sink)
        delays.append((first[0] if first else perf_counter()) - start)
    return mean(delays) * 1e3


class WebKernelBatch(Workload):
    name = "web-kernel-batch"
    lap_ops = 100

    NODES = 12_000
    EXPRESSION = "(a + b)* c"
    #: One full 64-bit mask word per op.
    WIDTH = 64

    def generate(self, tmpdir) -> None:
        self.instance, self.nodes = web_graph(400 if self.smoke else self.NODES)

    def make_ops(self, count: int) -> list:
        rng = self.rng("ops")
        return [tuple(rng.sample(self.nodes, self.WIDTH)) for _ in range(count)]

    def oracle(self, ops: list) -> dict:
        rng = self.rng("oracle")
        expected = {}
        for index in rng.sample(range(len(ops)), min(3, len(ops))):
            results = self.engine.query_batch(self.EXPRESSION, ops[index])
            sample = rng.sample(ops[index], 3)
            agrees = baseline_agrees(self.instance, self.EXPRESSION, sample, results)
            expected[index] = answers_digest(results) if agrees else ORACLE_MISMATCH
        return expected

    def lap(self, ops: list):
        engine, expression = self.engine, self.EXPRESSION
        return sync_lap(ops, lambda sources: engine.query_batch(expression, sources),
                        answers_digest)

    def counts(self) -> dict:
        stats = self.engine.stats
        return {
            "visited_pairs": stats.visited_pairs,
            "batched_sources": stats.batched_sources,
            "compile_hits": self.engine.compiler.hits,
            "compile_misses": self.engine.compiler.misses,
        }

    def trace(self, ops: list, recorder, facade: list) -> dict:
        failed = 0
        visited = 0
        reference = facade[0].digests
        for index, sources in enumerate(ops):
            with recorder.span("op", index):
                results, run = decomposed_read(
                    self.engine, recorder, self.EXPRESSION, sources, index
                )
            visited += run.visited_pairs
            failed += answers_digest(results) != reference[index]
        run_s = recorder.total("executor.run_batch")
        compile_s = recorder.total("compiled_query.compile")
        facade_wall = min(lap.wall for lap in facade)
        return {
            "_failed": failed,
            "executor.run_batch_ms": run_s / len(ops) * 1e3,
            "executor.visited_pairs_per_op": visited / len(ops),
            "executor.mpairs_per_s": visited / run_s / 1e6,
            "executor.first_answer_ms": first_answer_ms(
                self.engine, self.EXPRESSION, ops[:16]
            ),
            "session.facade_gap_ms": (facade_wall - compile_s - run_s) / len(ops) * 1e3,
            "compiled_query.cache_hit_share": hit_share(facade[0].counts),
            "compiled_query.dfa_states_mean": float(
                self.engine.compiled(self.EXPRESSION).dfa_size
            ),
        }
