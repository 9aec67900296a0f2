"""Tests for the telemetry substrate (``repro.engine.telemetry``).

Covers the metrics registry (counter/gauge/histogram semantics, percentile
math against a sorted-list reference, Prometheus and text rendering), the
tracing layer (span parentage, ring-buffer and per-trace bounds, the
disabled-mode NULL_SPAN fast path), instrumentation through all three
session kinds (Engine, ShardedEngine, QueryServer) under both executor
backends, the line protocol's control verbs, and the HTTP export surface.
``scripts/check.sh obs`` runs this file in both numpy arms.
"""

import asyncio
import json
import urllib.request

import pytest

from repro.engine import (
    NULL_SPAN,
    Engine,
    Histogram,
    MetricsRegistry,
    QueryRequest,
    ShardedEngine,
    Telemetry,
    TelemetryHTTPServer,
    Tracer,
    available_backends,
    render_text,
    set_telemetry_enabled,
    telemetry_enabled,
)
from repro.engine.serving import handle_control
from repro.engine.telemetry import Trace
from repro.exceptions import ReproError
from repro.graph import figure2_graph, web_like_graph

EXECUTOR_BACKENDS = available_backends()


@pytest.fixture
def telemetry_on():
    """Force capture on for the test, restoring the prior state after."""
    previous = set_telemetry_enabled(True)
    yield
    set_telemetry_enabled(previous)


@pytest.fixture
def telemetry_off():
    previous = set_telemetry_enabled(False)
    yield
    set_telemetry_enabled(previous)


def web(nodes=30, seed=7):
    instance, _ = web_like_graph(nodes, ["a", "b", "c"], seed=seed)
    return instance


# ---------------------------------------------------------------------------
# Metrics registry.
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_get_or_create_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests", "total", labelnames=("backend",))
        assert registry.counter("requests") is counter
        counter.inc(1, "numpy")
        counter.inc(2, "numpy")
        counter.inc(5, "packed")
        assert counter.value("numpy") == 3
        assert counter.value("packed") == 5
        assert registry.snapshot()["requests"] == {"numpy": 3, "packed": 5}

    def test_counter_label_arity_enforced(self):
        counter = MetricsRegistry().counter("c", "", labelnames=("x",))
        with pytest.raises(ReproError, match="wants labels"):
            counter.inc(1)

    def test_gauge_reads_callback_at_snapshot_time(self):
        registry = MetricsRegistry()
        box = {"value": 1}
        registry.gauge("level", "", lambda: box["value"])
        assert registry.snapshot()["level"] == 1
        box["value"] = 7
        assert registry.snapshot()["level"] == 7

    def test_gauge_last_registration_wins(self):
        # A new QueryServer over the same engine re-registers the serving
        # gauges; the snapshot must follow the newest callback.
        registry = MetricsRegistry()
        registry.gauge("served", "", lambda: 1)
        registry.gauge("served", "", lambda: 2)
        assert registry.snapshot()["served"] == 2
        assert len(registry) == 1

    def test_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "")
        with pytest.raises(ReproError, match="already a counter"):
            registry.gauge("x", "", lambda: 0)
        with pytest.raises(ReproError, match="already a counter"):
            registry.histogram("x", "")
        registry.histogram("h", "")
        with pytest.raises(ReproError, match="already a histogram"):
            registry.counter("h", "")

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ReproError, match="ascending"):
            Histogram("h", "", buckets=(1.0, 0.5))


class TestHistogramPercentiles:
    def _reference(self, values, quantile):
        """Nearest-rank reference: the value at rank ceil(q*n)."""
        import math

        ordered = sorted(values)
        rank = max(1, math.ceil(quantile * len(ordered)))
        return ordered[rank - 1]

    @pytest.mark.parametrize("quantile", [0.5, 0.95, 0.99])
    def test_interpolation_close_to_sorted_reference(self, telemetry_on, quantile):
        import random

        rng = random.Random(42)
        buckets = tuple(0.001 * (2 ** i) for i in range(14))
        hist = Histogram("h", "", buckets=buckets)
        values = [rng.uniform(0.0005, 4.0) for _ in range(500)]
        for value in values:
            hist.observe(value)
        estimate = hist.percentile(quantile)
        reference = self._reference(values, quantile)
        # Bucket interpolation is an estimate: require it to land within
        # one bucket's width of the true rank value.
        position = min(
            range(len(buckets)), key=lambda i: abs(buckets[i] - reference)
        )
        width = buckets[min(position + 1, len(buckets) - 1)] - buckets[max(position - 1, 0)]
        assert abs(estimate - reference) <= width
        # And never outside the observed range.
        assert min(values) <= estimate <= max(values)

    def test_exact_bucket_math(self, telemetry_on):
        # 50 in (0, 0.001], 40 in (0.001, 0.25], 10 in (0.25, 0.5]:
        # p50 sits exactly at the first bucket's upper bound.
        hist = Histogram("h", "", buckets=(0.001, 0.25, 0.5))
        for _ in range(50):
            hist.observe(0.0005)
        for _ in range(40):
            hist.observe(0.2)
        for _ in range(10):
            hist.observe(0.4)
        assert hist.percentile(0.50) == pytest.approx(0.001)
        assert hist.percentile(0.95) == pytest.approx(0.375)
        # The raw interpolation says 0.475, but estimates are clamped to
        # the observed range and the largest observation was 0.4.
        assert hist.percentile(0.99) == pytest.approx(0.4)

    def test_overflow_bucket_interpolates_toward_max(self, telemetry_on):
        hist = Histogram("h", "", buckets=(1.0,))
        hist.observe(0.5)
        hist.observe(3.0)  # overflow
        assert hist.percentile(1.0) == pytest.approx(3.0)
        assert hist.percentile(0.99) <= 3.0

    def test_overflow_only_distribution_uses_observed_min(self, telemetry_on):
        # Every observation beyond the last bound: interpolation must run
        # within [min, max], not upward from the bucket bound 2.0 — a value
        # that was never observed (the old estimate for p50 here was 501.0,
        # i.e. 2.0 + 998 * 0.5).
        hist = Histogram("h", "", buckets=(1.0, 2.0))
        hist.observe(10.0)
        hist.observe(1000.0)
        assert hist.percentile(0.0) == pytest.approx(10.0)
        assert hist.percentile(0.5) == pytest.approx(505.0)  # 10 + 990 * 0.5
        assert hist.percentile(1.0) == pytest.approx(1000.0)

    def test_overflow_only_single_value_exact_at_every_quantile(
        self, telemetry_on
    ):
        hist = Histogram("h", "", buckets=(1.0,))
        for _ in range(3):
            hist.observe(50.0)
        for quantile in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.percentile(quantile) == pytest.approx(50.0)

    def test_single_value_in_bounded_bucket_exact(self, telemetry_on):
        hist = Histogram("h", "", buckets=(1.0, 2.0))
        hist.observe(1.5)
        for quantile in (0.0, 0.5, 0.99, 1.0):
            assert hist.percentile(quantile) == pytest.approx(1.5)

    def test_empty_histogram_zero_at_every_quantile(self):
        # Pinned: no samples means 0.0 everywhere — never inf/nan and never
        # a bucket bound.
        hist = Histogram("h", "", buckets=(1.0, 2.0))
        for quantile in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.percentile(quantile) == 0.0

    def test_empty_histogram_reports_zero(self):
        hist = Histogram("h", "")
        assert hist.percentile(0.99) == 0.0
        assert hist.summary() == {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_quantile_domain_checked(self):
        with pytest.raises(ReproError, match="quantile"):
            Histogram("h", "").percentile(1.5)

    def test_observe_noop_when_disabled(self, telemetry_off):
        hist = Histogram("h", "")
        hist.observe(0.1)
        assert hist.count == 0 and hist.sum == 0.0


class TestRendering:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("hits", "cache hits").inc(3)
        registry.gauge("depth", "queue depth", lambda: 2)
        registry.gauge(
            "runs", "per backend", lambda: {"numpy": 4}, labelnames=("backend",)
        )
        hist = registry.histogram("latency", "seconds", buckets=(0.1, 1.0))
        previous = set_telemetry_enabled(True)
        try:
            hist.observe(0.05)
            hist.observe(0.5)
        finally:
            set_telemetry_enabled(previous)
        return registry

    def test_prometheus_exposition_format(self):
        text = self._populated().render_prometheus()
        assert "# HELP hits cache hits" in text
        assert "# TYPE hits counter" in text
        assert "hits 3" in text
        assert "depth 2" in text
        assert 'runs{backend="numpy"} 4' in text
        assert "# TYPE latency histogram" in text
        assert 'latency_bucket{le="0.1"} 1' in text
        assert 'latency_bucket{le="1"} 2' in text
        assert 'latency_bucket{le="+Inf"} 2' in text
        assert "latency_count 2" in text
        assert text.endswith("\n")

    def test_render_text_stable_lines(self):
        lines = render_text(self._populated().snapshot())
        # Metric names come out sorted; histogram stat lines keep the fixed
        # count/sum/p50/p95/p99 order under their name.
        names = [
            "latency" if line.startswith("latency_")
            else line.split("{")[0].split(" ")[0]
            for line in lines
        ]
        assert names == sorted(names)
        assert "hits 3" in lines
        assert "runs{numpy} 4" in lines
        assert "latency_count 2" in lines
        assert any(line.startswith("latency_p99 ") for line in lines)


# ---------------------------------------------------------------------------
# Tracing.
# ---------------------------------------------------------------------------
class TestTracing:
    def test_span_parentage_via_context(self, telemetry_on):
        tele = Telemetry()
        with tele.span("root") as root:
            with tele.span("child") as child:
                grandchild = tele.span("grandchild")
                grandchild.end()
        spans = root.trace.spans
        assert [span.name for span in spans] == ["root", "child", "grandchild"]
        assert spans[0].parent_id is None
        assert spans[1].parent_id == spans[0].span_id
        assert spans[2].parent_id == spans[1].span_id

    def test_root_end_records_into_tracer(self, telemetry_on):
        tele = Telemetry()
        with tele.span("request"):
            pass
        trace = tele.tracer.last()
        assert trace is not None and trace.root.name == "request"
        assert tele.tracer.recorded == 1

    def test_span_under_crosses_threads(self, telemetry_on):
        import threading

        tele = Telemetry()
        with tele.span("batch") as batch:
            seen = []

            def worker():
                span = tele.span_under(batch, "local", shard=1)
                with tele.under(span):
                    inner = tele.span("nested")
                    inner.end()
                span.end()
                seen.append((span, inner))

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        span, inner = seen[0]
        assert span.parent_id == batch.span_id
        assert inner.parent_id == span.span_id
        assert span.trace is batch.trace

    def test_children_durations_sum_within_root(self, telemetry_on):
        tele = Telemetry()
        with tele.span("root") as root:
            for _ in range(3):
                with tele.span("step"):
                    sum(range(1000))
        children = [s for s in root.trace.spans if s.parent_id == root.span_id]
        assert sum(s.duration for s in children) <= root.duration + 1e-9

    def test_ring_buffer_bounded(self, telemetry_on):
        tracer = Tracer(capacity=4, slow_capacity=2)
        tele = Telemetry(tracer=tracer)
        for index in range(10):
            with tele.span("r", index=index):
                pass
        assert len(tracer) == 4
        assert tracer.recorded == 10
        assert [t.root.attributes["index"] for t in tracer.traces()] == [6, 7, 8, 9]
        assert len(tracer.slowest(100)) == 2

    def test_slow_log_keeps_worst_not_newest(self, telemetry_on):
        tracer = Tracer(capacity=2, slow_capacity=1)
        tele = Telemetry(tracer=tracer)
        slow = tele.span("slow")
        slow.start -= 10.0  # fake a 10s request
        slow.end()
        for _ in range(5):
            with tele.span("fast"):
                pass
        [worst] = tracer.slowest(1)
        assert worst.root.name == "slow"
        # Evicted from the ring but still reachable by id via the slow log.
        assert tracer.get(worst.trace_id) is worst

    def test_per_trace_span_cap(self, telemetry_on):
        from repro.engine.telemetry import Span

        tele = Telemetry()
        trace = Trace(tele.tracer, max_spans=8)
        root = Span(trace, "root", None)
        for _ in range(20):
            root.child("c").end()
        root.end()
        assert len(trace.spans) == trace.max_spans
        assert trace.dropped == 21 - trace.max_spans
        assert any("dropped" in line for line in trace.render())

    def test_render_tree_indents_children(self, telemetry_on):
        tele = Telemetry()
        with tele.span("root") as root:
            with tele.span("child", shard=0):
                pass
        lines = root.trace.render()
        assert lines[0].startswith(f"trace {root.trace.trace_id} (root,")
        assert lines[1].startswith("  root ")
        assert lines[2].startswith("    child ") and "{shard=0}" in lines[2]

    def test_exception_annotates_span(self, telemetry_on):
        tele = Telemetry()
        with pytest.raises(ValueError):
            with tele.span("boom") as span:
                raise ValueError("nope")
        assert "ValueError" in span.attributes["error"]
        assert span.duration is not None


class TestDisabledMode:
    def test_span_returns_null_singleton(self, telemetry_off):
        tele = Telemetry()
        first = tele.span("a")
        second = tele.span("b")
        assert first is NULL_SPAN and second is NULL_SPAN
        assert tele.span_under(NULL_SPAN, "c") is NULL_SPAN
        with tele.under(NULL_SPAN) as active:
            assert active is NULL_SPAN
        assert not NULL_SPAN  # falsy, so `if span:` guards stay cheap

    def test_null_span_is_inert(self, telemetry_off):
        with NULL_SPAN as span:
            assert span.set(x=1) is span
            assert span.child("c") is span
            assert span.event("e", 0.0, 0.0) is span
            assert span.end() == 0.0
        assert NULL_SPAN.attributes == {}

    def test_disabled_sessions_record_nothing(self, telemetry_off):
        instance, _ = figure2_graph()
        engine = Engine.open(instance)
        engine.query("a b*", "o1")
        assert engine.metrics.tracer.recorded == 0
        snapshot = engine.telemetry()
        assert snapshot["telemetry_enabled"] == 0
        assert snapshot["engine_query_seconds"]["count"] == 0
        # The registry gauges still read live stats even while disabled.
        assert snapshot["engine_single_evaluations"] == 1

    def test_flag_roundtrip(self):
        previous = set_telemetry_enabled(False)
        try:
            assert telemetry_enabled() is False
            assert set_telemetry_enabled(True) is False
            assert telemetry_enabled() is True
        finally:
            set_telemetry_enabled(previous)


# ---------------------------------------------------------------------------
# Session instrumentation: Engine / ShardedEngine / QueryServer.
# ---------------------------------------------------------------------------
class TestSessionInstrumentation:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_engine_trace_shape(self, telemetry_on, backend):
        instance, _ = figure2_graph()
        engine = Engine.open(instance, backend=backend)
        engine.query("a b*", "o1")
        trace = engine.metrics.tracer.last()
        names = [span.name for span in trace.spans]
        assert names[0] == "engine.query"
        assert "engine.compile" in names and "engine.run" in names
        assert all(
            span.parent_id == trace.root.span_id for span in trace.spans[1:]
        )
        run = next(s for s in trace.spans if s.name == "engine.run")
        # Single-source runs have one kernel whatever the session's backend,
        # and the span names the kernel that ran.
        assert run.attributes["backend"] == "scalar"
        # Both session kinds name each call by its mode on the root span.
        sharded = ShardedEngine.open(instance, shards=2, backend=backend)
        for session, prefix in ((engine, "engine"), (sharded, "sharded")):
            session.query("a b*", "o1")
            session.query_batch("a b*", ["o1", "o2"])
            session.query_all("a b*")
            roots = [t.root for t in session.metrics.tracer.traces()][-3:]
            assert [(r.name, r.attributes["mode"]) for r in roots] == [
                (f"{prefix}.query", "single"),
                (f"{prefix}.query", "batch"),
                (f"{prefix}.query", "all_pairs"),
            ]

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_engine_histograms_fill(self, telemetry_on, backend):
        instance, _ = figure2_graph()
        engine = Engine.open(instance, backend=backend)
        engine.query_batch("a b*", ["o1", "o2"])
        engine.query("b", "o2")
        snapshot = engine.telemetry()
        assert snapshot["engine_query_seconds"]["count"] == 2
        assert snapshot["engine_run_seconds"]["count"] == 2
        assert snapshot["engine_compile_seconds"]["count"] == 2
        assert snapshot["engine_query_seconds"]["sum"] > 0

    def test_compile_span_marks_cache_hits(self, telemetry_on):
        instance, _ = figure2_graph()
        engine = Engine.open(instance)
        engine.query("a b*", "o1")
        engine.query("a b*", "o2")
        compiles = [
            span
            for trace in engine.metrics.tracer.traces()
            for span in trace.spans
            if span.name == "engine.compile"
        ]
        assert [span.attributes["cached"] for span in compiles] == [False, True]

    def test_rewrite_span_says_what_the_search_cost(self, telemetry_on):
        from repro.constraints import ConstraintSet, word_equality

        instance, _ = figure2_graph()
        constraints = ConstraintSet([word_equality("a b", "c"), word_equality("a", "d e")])
        engine = Engine.open(instance, constraints=constraints)
        engine.query("a b b", "o1")  # candidates: c b (cheaper), d e b b (dearer)
        engine.query("a b b", "o1")  # memo hit: no second search
        engine.query("b", "o1")  # nothing to rewrite
        rewrites = [
            span
            for trace in engine.metrics.tracer.traces()
            for span in trace.spans
            if span.name == "engine.rewrite"
        ]
        assert len(rewrites) == 2
        attributes = dict(rewrites[0].attributes)
        generate_ms = attributes.pop("generate_ms")
        prove_ms = attributes.pop("prove_ms")
        # c b is one prefix step a b -> c from the query: checked, not proved.
        assert attributes == {
            "improved": True,
            "generated": 2,
            "proofs_attempted": 1,
            "skipped_by_cost": 1,
            "proved_by": "prefix-rewrite",
        }
        # The two phases are timed inside the span, one after the other.
        assert generate_ms >= 0 and prove_ms >= 0
        assert generate_ms + prove_ms <= rewrites[0].duration * 1e3
        unchanged = rewrites[1].attributes
        assert (unchanged["improved"], unchanged["proved_by"]) == (False, "")

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_sharded_trace_is_the_engine_tree(self, telemetry_on, backend):
        # A sharded evaluation is one compile and one run over its view:
        # the same span tree as a monolithic one, under its own root.
        instance = web(30)
        sharded = ShardedEngine.open(instance, shards=3, backend=backend)
        mono = Engine.open(instance, backend=backend)
        source = sorted(instance.objects, key=repr)[0]
        shapes = {}
        for session in (sharded, mono):
            session.query("a (b + c)*", source)
            trace = session.metrics.tracer.last()
            by_id = {span.span_id: span for span in trace.spans}
            shapes[session._PREFIX] = [
                (span.name, by_id[span.parent_id].name if span.parent_id in by_id else None)
                for span in trace.spans
            ]
        assert shapes["sharded"] == [
            ("sharded.query", None),
            ("engine.compile", "sharded.query"),
            ("engine.run", "sharded.query"),
        ]
        assert [name for name, _ in shapes["engine"]] == [
            "engine.query", "engine.compile", "engine.run"
        ]

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_sharded_run_span_carries_the_work_counts(self, telemetry_on, backend):
        instance = web(30)
        sharded = ShardedEngine.open(instance, shards=3, backend=backend)
        mono = Engine.open(instance, backend=backend)
        sources = sorted(instance.objects, key=repr)[:6]
        attributes = {}
        for session in (sharded, mono):
            assert session.query_batch("a (b + c)*", sources)
            [run] = [
                span for span in session.metrics.tracer.last().spans
                if span.name == "engine.run"
            ]
            attributes[session._PREFIX] = run.attributes
        assert attributes["sharded"] == attributes["engine"]
        assert attributes["sharded"]["visited"] == sharded.stats.visited_pairs > 0
        assert sharded.telemetry()["sharded_local_fixpoint_seconds"]["count"] == 1

    def test_sharded_spans_stay_null_when_disabled(self, telemetry_off):
        instance = web(30)
        sharded = ShardedEngine.open(instance, shards=3)
        sharded.query_batch("a (b + c)*", sorted(instance.objects, key=repr)[:6])
        assert sharded.metrics.span("engine.run") is NULL_SPAN
        assert sharded.metrics.tracer.recorded == 0

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_server_trace_children_sum_within_total(self, telemetry_on, backend):
        instance = web(30)
        engine = Engine.open(instance, backend=backend)
        sources = sorted(instance.objects, key=repr)[:4]

        async def scenario():
            async with engine.as_server(max_batch=16) as server:
                await server.submit_many(QueryRequest(query="a (b + c)*", sources=tuple(sources)))

        asyncio.run(scenario())
        trace = engine.metrics.tracer.last()
        assert trace.root.name == "serve.batch"
        children = [
            s for s in trace.spans if s.parent_id == trace.root.span_id
        ]
        names = [s.name for s in children]
        assert "admission_wait" in names
        assert "evaluate" in names and "fanout" in names
        assert sum(s.duration for s in children) <= trace.duration + 1e-9
        snapshot = engine.telemetry()
        assert snapshot["serving_request_seconds"]["count"] == len(sources)
        assert snapshot["serving_flush_seconds"]["count"] == 1

    def test_server_over_sharded_engine_nests_its_run(self, telemetry_on):
        instance = web(30)
        sharded = ShardedEngine.open(instance, shards=2)
        source = sorted(instance.objects, key=repr)[0]

        async def scenario():
            async with sharded.as_server() as server:
                await server.submit(QueryRequest(query="a (b + c)*", sources=(source,)))

        asyncio.run(scenario())
        trace = sharded.metrics.tracer.last()
        assert trace.root.name == "serve.batch"
        names = {span.name for span in trace.spans}
        # The pool thread re-activates the batch span, so the sharded
        # engine's own spans join the same trace.
        assert "sharded.query" in names and "engine.run" in names


# ---------------------------------------------------------------------------
# Control verbs.
# ---------------------------------------------------------------------------
class TestControlVerbs:
    def _serve_and(self, verbs, telemetry_needed=True):
        instance = web(20)
        engine = Engine.open(instance)
        sources = sorted(instance.objects, key=repr)[:3]
        answers = {}

        async def scenario():
            async with engine.as_server() as server:
                await server.submit_many(QueryRequest(query="a (b + c)*", sources=tuple(sources)))
                for verb in verbs:
                    answers[verb] = handle_control(server, verb)

        asyncio.run(scenario())
        return engine, answers

    def test_stats_returns_registry_snapshot(self, telemetry_on):
        engine, answers = self._serve_and(["!stats"])
        verb, payload = answers["!stats"].split("\t", 1)
        assert verb == "!stats"
        snapshot = json.loads(payload)
        assert snapshot["serving_submitted"] == 3
        assert snapshot["serving_served"] == 3
        assert snapshot["serving_failed"] == 0
        assert snapshot["engine_graph_builds"] == 1

    def test_slow_returns_span_breakdowns_that_sum(self, telemetry_on):
        engine, answers = self._serve_and(["!slow 5"])
        verb, payload = answers["!slow 5"].split("\t", 1)
        assert verb == "!slow"
        traces = json.loads(payload)
        assert traces
        for trace in traces:
            root = trace["spans"][0]
            children = [
                s for s in trace["spans"] if s["parent_id"] == root["span_id"]
            ]
            total = sum(s["duration_s"] for s in children)
            assert total <= trace["duration_s"] + 1e-9

    def test_trace_round_trips_by_id(self, telemetry_on):
        engine, answers = self._serve_and(["!stats"])
        recorded = engine.metrics.tracer.last()

        async def scenario():
            async with engine.as_server() as server:
                return handle_control(server, f"!trace {recorded.trace_id}")

        reply = asyncio.run(scenario())
        verb, payload = reply.split("\t", 1)
        assert verb == "!trace"
        assert json.loads(payload)["trace_id"] == recorded.trace_id

    def test_error_replies(self, telemetry_on):
        engine, answers = self._serve_and(
            ["!trace", "!trace t999999", "!slow zero", "!bogus"]
        )
        assert answers["!trace"].startswith("!trace\terror: ")
        assert answers["!trace t999999"].startswith("!trace\terror: ")
        assert answers["!slow zero"].startswith("!slow\terror: ")
        assert "unknown control verb" in answers["!bogus"]

    def test_control_lines_served_inline(self, telemetry_on):
        from repro.engine.serving import respond_line

        instance, _ = figure2_graph()
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                request = await respond_line(server, "r1\to1\ta b*")
                stats = await respond_line(server, "!stats")
                return request, stats

        request, stats = asyncio.run(scenario())
        assert request == "r1\to2 o3"
        assert stats.startswith("!stats\t{")
        assert json.loads(stats.split("\t", 1)[1])["serving_served"] == 1


# ---------------------------------------------------------------------------
# Fuzz-adjacent invariant: admission arithmetic from the registry itself.
# ---------------------------------------------------------------------------
class TestAdmissionInvariant:
    def test_submitted_equals_served_plus_failed(self, telemetry_on):
        instance = web(25)
        engine = Engine.open(instance)
        sources = sorted(instance.objects, key=repr)[:5]

        async def scenario():
            async with engine.as_server(max_batch=4) as server:
                good = [
                    server.submit_nowait(QueryRequest(query="a (b + c)*", sources=(source,)))
                    for source in sources
                ]
                # Parse errors fail fast at admission but still count as
                # submitted + failed.
                for source in sources[:2]:
                    with pytest.raises(Exception):
                        server.submit_nowait(QueryRequest(query="((", sources=(source,)))
                return await asyncio.gather(*good)

        asyncio.run(scenario())
        snapshot = engine.telemetry()
        assert (
            snapshot["serving_submitted"]
            == snapshot["serving_served"] + snapshot["serving_failed"]
        )
        assert snapshot["serving_failed"] == 2


# ---------------------------------------------------------------------------
# HTTP export.
# ---------------------------------------------------------------------------
class TestHTTPServer:
    def test_metrics_and_healthz(self, telemetry_on):
        instance, _ = figure2_graph()
        engine = Engine.open(instance)
        engine.query("a b*", "o1")
        with TelemetryHTTPServer(engine.metrics) as http:
            host, port = http.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                body = response.read().decode("utf-8")
            assert "# TYPE engine_query_seconds histogram" in body
            assert "engine_graph_builds 1" in body
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=5
            ) as response:
                assert response.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=5)
            assert excinfo.value.code == 404

    def test_scrape_sees_live_values(self, telemetry_on):
        instance, _ = figure2_graph()
        engine = Engine.open(instance)
        with TelemetryHTTPServer(engine.metrics) as http:
            host, port = http.address

            def scrape():
                with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics", timeout=5
                ) as response:
                    return response.read().decode("utf-8")

            assert "engine_single_evaluations 0" in scrape()
            engine.query("a b*", "o1")
            assert "engine_single_evaluations 1" in scrape()

    def test_importing_the_engine_does_not_import_http_server(self):
        # ``http.server`` pulls in email/html/mimetypes/socketserver (~2.4 MB
        # resident); only a process that starts the exporter should pay.
        import os
        import subprocess
        import sys

        import repro

        probe = (
            "import sys, repro.engine\n"
            "assert 'http.server' not in sys.modules, 'imported eagerly'\n"
            "from repro.engine import Engine, TelemetryHTTPServer\n"
            "from repro.graph import figure2_graph\n"
            "TelemetryHTTPServer(Engine.open(figure2_graph()[0]).metrics).close()\n"
            "assert 'http.server' in sys.modules, 'exporter never imported it'\n"
        )
        source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [source_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
