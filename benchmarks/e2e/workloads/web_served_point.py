"""web-served-point: point lookups through the admission queue and the wire."""

from __future__ import annotations

import asyncio
import json
import random
from time import perf_counter, process_time

from harness import Lap, percentile
from repro.engine import QueryRequest, QueryServer, serve_stream
from repro.engine.serving import format_answers
from repro.query.evaluation import evaluate_baseline

from .base import DATASET_SEED, Workload, exact_mix, hit_share, web_graph
from .web_kernel_batch import WebKernelBatch

#: Eight short expressions: a lookup touches a few hundred pairs at most.
EXPRESSIONS = ("a", "a b", "a + b", "c d", "b (c + d)", "a b?", "(a + c) b", "d a")
IN_FLIGHT = 64


class RecordingEngine:
    """The engine as the server sees it, noting each flushed batch.

    Stands between ``QueryServer`` and the session in the traced lap only:
    which sources shared an evaluation is otherwise invisible from outside.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self.batches: "list[tuple]" = []  # (query, sources, start, end)

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def _noted(self, method, query, sources, *rest):
        start = perf_counter()
        results = method(query, sources, *rest)
        self.batches.append((query, tuple(sources), start, perf_counter()))
        return results

    def query_batch(self, query, sources):
        return self._noted(self._engine.query_batch, query, sources)

    def query_batch_streaming(self, query, sources, emit):
        return self._noted(self._engine.query_batch_streaming, query, sources, emit)


class WebServedPoint(Workload):
    name = "web-served-point"
    lap_ops = 3200
    smoke_ops = 2 * IN_FLIGHT
    #: On this 2-vCPU guest the event loop and the flush-pool thread are not
    #: faster on two CPUs (the GIL serialises them), but unpinned they have a
    #: slow mode lasting minutes — cross-vCPU wake-ups at every GIL hand-off —
    #: in which this workload reads 1000-1200 ops/s instead of 1450-1570
    #: while a pinned run started in the same minute stays fast (30
    #: alternations, README).
    pin_one_cpu = True

    NODES = WebKernelBatch.NODES
    HOT_PAGES = 512

    def generate(self, tmpdir) -> None:
        self.instance, self.nodes = web_graph(400 if self.smoke else self.NODES)
        # Which pages are hot, and in which order, belongs to the data set:
        # the top page alone draws a seventh of the traffic.
        self.hot = random.Random(DATASET_SEED).sample(
            self.nodes, min(self.HOT_PAGES, len(self.nodes))
        )

    def start(self, tmpdir) -> None:
        self.loop = asyncio.new_event_loop()
        self.server = self._server(self.engine)

    def _server(self, engine) -> QueryServer:
        async def construct():
            return QueryServer(engine, max_batch=64, max_delay=0.002)

        return self.loop.run_until_complete(construct())

    def stop(self) -> None:
        self.loop.run_until_complete(self.server.close())
        self.loop.close()

    def make_ops(self, count: int) -> list:
        """``(id, source, expression, kind, request line)`` per op.

        Sources are Zipf-skewed over the hot pages; 80 % of the lines are v1,
        10 % ``V2`` JSON, 10 % ``STREAM``.
        """
        rng = self.rng("ops")
        weights = [1.0 / rank for rank in range(1, len(self.hot) + 1)]
        sources = rng.choices(self.hot, weights, k=count)
        expressions = exact_mix(rng, EXPRESSIONS, [1] * len(EXPRESSIONS), count)
        kinds = exact_mix(rng, ("v1", "v2", "stream"), (8, 1, 1), count)
        ops = []
        for index, source in enumerate(sources):
            ident = f"r{index}"
            expression, kind = expressions[index], kinds[index]
            if kind == "v2":
                line = "V2\t" + json.dumps(
                    {"id": ident, "query": expression, "source": source}
                )
            else:
                line = f"{ident}\t{source}\t{expression}"
                if kind == "stream":
                    line += "\tSTREAM"
            ops.append((ident, source, expression, kind, line))
        return ops

    def oracle(self, ops: list) -> dict:
        rng = self.rng("oracle")
        expected = {}
        for index in rng.sample(range(len(ops)), min(24, len(ops))):
            ident, source, expression, _kind, _line = ops[index]
            answers = evaluate_baseline(expression, source, self.instance).answers
            expected[index] = hash(f"{ident}\t{format_answers(answers)}")
        return expected

    # -- the wire path --------------------------------------------------------
    async def _serve(self, server, ops):
        """Closed loop over ``serve_stream``: an op is one request line to its
        final response line, ``IN_FLIGHT`` requests outstanding.  Returns the
        lap plus, per request id, when it was sent and when its first
        ``STREAM`` chunk arrived."""
        lines = iter(ops)
        sent: "dict[str, float]" = {}
        first_chunk: "dict[str, float]" = {}
        final: "dict[str, tuple]" = {}

        async def readline() -> str:
            op = next(lines, None)
            if op is None:
                return ""
            sent[op[0]] = perf_counter()
            return op[4] + "\n"

        def emit(response: str) -> None:
            now = perf_counter()
            ident, _tab, rest = response.partition("\t")
            if rest.startswith("+\t"):
                first_chunk.setdefault(ident, now)
            else:
                final[ident] = (now, response)

        cpu_start = process_time()
        start = perf_counter()
        await serve_stream(server, readline, emit, max_inflight=IN_FLIGHT)
        wall = perf_counter() - start
        cpu = process_time() - cpu_start
        latencies, digests = [], []
        for ident, _source, _expression, _kind, _line in ops:
            done, response = final.get(ident, (sent[ident], None))
            latencies.append(done - sent[ident])
            failed = response is None or response.startswith(f"{ident}\terror:")
            digests.append(None if failed else hash(response))
        return Lap(wall, cpu, latencies, digests), sent, first_chunk

    def lap(self, ops: list) -> Lap:
        return self.loop.run_until_complete(self._serve(self.server, ops))[0]

    def counts(self) -> dict:
        # Which requests share a batch depends on timing (two threads), so
        # only the request tallies repeat exactly.
        stats = self.server.stats
        return {"submitted": stats.submitted, "served": stats.served,
                "failed": stats.failed}

    # -- the trace ------------------------------------------------------------
    async def _submit(self, ops) -> Lap:
        """The same requests through ``submit_nowait``: no wire at all."""
        server = self.server
        latencies = [0.0] * len(ops)
        answers: "list" = [None] * len(ops)
        gate = asyncio.Semaphore(IN_FLIGHT)

        async def one(index, source, expression):
            start = perf_counter()
            try:
                answers[index] = await server.submit_nowait(
                    QueryRequest(query=expression, sources=(source,))
                )
            finally:
                latencies[index] = perf_counter() - start
                gate.release()

        cpu_start = process_time()
        start = perf_counter()
        tasks = []
        for index, (_ident, source, expression, _kind, _line) in enumerate(ops):
            await gate.acquire()
            tasks.append(asyncio.ensure_future(one(index, source, expression)))
        await asyncio.gather(*tasks)
        wall = perf_counter() - start
        return Lap(wall, process_time() - cpu_start, latencies, answers)

    def trace(self, ops: list, recorder, facade: list) -> dict:
        loop = self.loop
        best = min(facade, key=lambda lap: lap.wall)
        # (1) The wire path again, through a server that notes its batches.
        recording = RecordingEngine(self.engine)
        traced_server = self._server(recording)
        stats_before = dict(vars(traced_server.stats))
        compiler = self.engine.compiler
        hits, misses = compiler.hits, compiler.misses
        traced, sent, first_chunk = loop.run_until_complete(
            self._serve(traced_server, ops)
        )
        stats = {key: value - stats_before[key]
                 for key, value in vars(traced_server.stats).items()}
        loop.run_until_complete(traced_server.close())
        compiles = {"compile_hits": compiler.hits - hits,
                    "compile_misses": compiler.misses - misses}
        reference = facade[0].digests
        failed = sum(a != b for a, b in zip(traced.digests, reference))
        for index, latency in enumerate(traced.latencies):
            start = sent[ops[index][0]]
            recorder.add("serving.request", start, start + latency, None, index)
        for _query, _sources, start, end in recording.batches:
            recorder.add("engine.query_batch", start, end)
        # (2) No wire: submit_nowait(QueryRequest) with the same concurrency.
        submit = loop.run_until_complete(self._submit(ops))
        # (3) No queue either: the recorded batches straight into the engine.
        cpu_start = process_time()
        start = perf_counter()
        for query, sources, _start, _end in recording.batches:
            self.engine.query_batch(query, sources)
        direct_wall = perf_counter() - start
        direct_cpu = process_time() - cpu_start
        recorder.add("direct.query_batch", start, start + direct_wall)
        # (4) The answer formatter alone.
        start = perf_counter()
        for answers in submit.digests:
            format_answers(answers)
        format_s = perf_counter() - start
        count = len(ops)
        streamed = [i for i, op in enumerate(ops) if op[3] == "stream"]
        codec_s = best.wall - submit.wall
        return {
            "_failed": failed,
            "_traced_wall": traced.wall,
            # Evaluation and wire codec; admission, the event loop and the
            # fan-out are what is left unattributed.
            "_layer_sum": direct_wall + max(0.0, codec_s),
            "serving.submit_p50_ms": percentile(submit.latencies, 0.5) * 1e3,
            "serving.wire_codec_us_per_op": codec_s / count * 1e6,
            "serving.format_answers_us": format_s / count * 1e6,
            "serving.batches_per_kop": stats["batches"] / count * 1e3,
            "serving.batch_width_mean": count / stats["batches"],
            "serving.coalesced_share": stats["coalesced"] / count,
            "serving.merged_share": stats["merged"] / count,
            "serving.delay_flush_share": stats["delay_flushes"] / stats["batches"],
            "serving.queue_share": 1.0 - direct_cpu / best.cpu,
            "serving.stream_first_answer_p50_ms": percentile(
                # An empty answer set streams no chunk: its first byte is
                # the final line.
                [first_chunk[ops[i][0]] - sent[ops[i][0]] if ops[i][0] in first_chunk
                 else traced.latencies[i] for i in streamed], 0.5
            ) * 1e3,
            "serving.stream_resolve_p50_ms": percentile(
                [traced.latencies[i] for i in streamed], 0.5
            ) * 1e3,
            "executor.run_batch_ms": direct_wall / len(recording.batches) * 1e3,
            "compiled_query.cache_hit_share": hit_share(compiles),
        }
