"""web-edit-read: read-your-writes transactions over the kernel's graph."""

from __future__ import annotations

from time import perf_counter

from harness import SpanRecorder, answers_digest, sync_lap

from .base import (
    ORACLE_MISMATCH,
    WEB_LABELS,
    Workload,
    baseline_agrees,
    decomposed_read,
    hit_share,
    mean,
    web_graph,
)
from .web_kernel_batch import WebKernelBatch


class WebEditRead(Workload):
    name = "web-edit-read"
    lap_ops = 110

    NODES = WebKernelBatch.NODES
    EXPRESSION = WebKernelBatch.EXPRESSION
    WIDTH = 16
    EDITS = 2
    #: A transaction removes the edges added this many transactions earlier.
    WINDOW = 8

    def generate(self, tmpdir) -> None:
        self.instance, self.nodes = web_graph(400 if self.smoke else self.NODES)
        self._live: "list[tuple]" = []  # edges a lap added and has not removed

    def make_ops(self, count: int) -> list:
        rng = self.rng("ops")
        fresh: "set[tuple]" = set()
        ops = []
        for index in range(count):
            adds = []
            while len(adds) < self.EDITS:
                edge = (rng.choice(self.nodes), rng.choice(WEB_LABELS), rng.choice(self.nodes))
                if edge not in fresh and not self.instance.has_edge(*edge):
                    fresh.add(edge)
                    adds.append(edge)
            removes = ops[index - self.WINDOW][0] if index >= self.WINDOW else ()
            ops.append((tuple(adds), removes, tuple(rng.sample(self.nodes, self.WIDTH))))
        return ops

    def _edit(self, adds, removes) -> None:
        engine = self.engine
        for edge in adds:
            engine.add_edge(*edge)
            self._live.append(edge)
        for edge in removes:
            engine.remove_edge(*edge)
            self._live.remove(edge)

    def _transaction(self, op):
        adds, removes, sources = op
        self._edit(adds, removes)
        return self.engine.query_batch(self.EXPRESSION, sources)

    def oracle(self, ops: list) -> dict:
        # The answers depend on the edits so far: replay a prefix and check
        # sampled transactions against the baseline on the live instance.
        rng = self.rng("oracle")
        prefix = min(len(ops), self.WINDOW + 4)
        checked = set(rng.sample(range(prefix), min(3, prefix)))
        expected = {}
        for index in range(prefix):
            results = self._transaction(ops[index])
            if index in checked:
                sample = rng.sample(ops[index][2], 2)
                agrees = baseline_agrees(self.instance, self.EXPRESSION, sample, results)
                expected[index] = answers_digest(results) if agrees else ORACLE_MISMATCH
        self.restore()
        return expected

    def lap(self, ops: list):
        return sync_lap(ops, self._transaction, answers_digest)

    def restore(self) -> None:
        """Drain the window and compact: the graph is the data set's again."""
        self._edit((), tuple(self._live))
        self.engine.compact_now()

    def counts(self) -> dict:
        stats = self.engine.stats
        return {
            "visited_pairs": stats.visited_pairs,
            "incremental_edges": stats.incremental_edges,
            "incremental_removals": stats.incremental_removals,
            "compile_hits": self.engine.compiler.hits,
            "compile_misses": self.engine.compiler.misses,
        }

    def trace(self, ops: list, recorder, facade: list) -> dict:
        engine = self.engine
        failed = 0
        visited = 0
        penalties = []
        reference = facade[0].digests
        version = engine.graph.version
        for index, (adds, removes, sources) in enumerate(ops):
            with recorder.span("op", index):
                for edge in adds:
                    with recorder.span("csr.add_edge"):
                        engine.add_edge(*edge)
                    self._live.append(edge)
                for edge in removes:
                    with recorder.span("csr.remove_edge"):
                        engine.remove_edge(*edge)
                    self._live.remove(edge)
                start = perf_counter()
                results, run = decomposed_read(
                    engine, recorder, self.EXPRESSION, sources, index
                )
                cold = perf_counter() - start
            visited += run.visited_pairs
            failed += answers_digest(results) != reference[index]
            # The same read again, now warm for this graph version.
            start = perf_counter()
            decomposed_read(engine, SpanRecorder(), self.EXPRESSION, sources, index)
            penalties.append(cold - (perf_counter() - start))
        edits = sum(len(adds) + len(removes) for adds, removes, _s in ops)
        # Every edit bumps the version once; anything beyond is a compaction.
        compactions = engine.graph.version - version - edits
        # Fold the live window into the CSR (a real compaction), then drain.
        start = perf_counter()
        engine.compact_now()
        compact_s = perf_counter() - start
        self.restore()
        run_s = recorder.total("executor.run_batch")
        return {
            "_failed": failed,
            "executor.run_batch_ms": run_s / len(ops) * 1e3,
            "executor.visited_pairs_per_op": visited / len(ops),
            "executor.mpairs_per_s": visited / run_s / 1e6,
            "executor.post_edit_penalty_ms": mean(penalties) * 1e3,
            "csr.add_edge_us": mean(recorder.durations("csr.add_edge")) * 1e6,
            "csr.remove_edge_us": mean(recorder.durations("csr.remove_edge")) * 1e6,
            "csr.compact_ms": compact_s * 1e3,
            "csr.compactions": float(compactions),
            "compiled_query.cache_hit_share": hit_share(facade[0].counts),
            "compiled_query.dfa_states_mean": float(
                engine.compiled(self.EXPRESSION).dfa_size
            ),
        }
