"""Telemetry substrate: metrics registry, structured tracing, live export.

Every later performance PR (kernel passes, the multiprocess tier, answer
streaming) needs to *see* where time goes before it can claim to move it.
This module is that observability substrate for the whole serving stack, in
three layers that deliberately share nothing but a module-level enabled
flag:

* :class:`MetricsRegistry` — thread-safe **counters**, **gauges** (callback
  style: the existing ``EngineStats`` / ``ShardedStats`` / ``ServingStats``
  dataclasses *register into* a session's registry, so one
  ``registry.snapshot()`` covers the entire session without double
  bookkeeping), and fixed-bucket latency :class:`Histogram`\\ s whose
  p50/p95/p99 come from cumulative-bucket linear interpolation — no
  third-party dependency, Prometheus-compatible rendering
  (:meth:`MetricsRegistry.render_prometheus`);

* a **structured tracing layer** — lightweight :class:`Span`\\ s
  (``trace_id``, name, start, duration, parent, attributes) collected into
  per-request :class:`Trace` trees and recorded by a :class:`Tracer` into a
  bounded ring buffer plus a *slow-query log* keeping the N worst traces.
  Spans nest through a :mod:`contextvars` current-span variable within a
  thread, and cross thread boundaries explicitly
  (:meth:`Telemetry.span_under` / :meth:`Telemetry.under`) — which is how
  one serving trace spans the event loop, the flush pool and the superstep
  scheduler's workers;

* **export surfaces** — ``registry.snapshot()`` (JSON-ready dict with
  stable key names), ``render_prometheus()`` (text exposition format 0.0.4),
  :func:`render_text` (the unified ``--stats`` dump), and
  :class:`TelemetryHTTPServer`, a stdlib ``http.server`` thread answering
  ``/metrics`` and ``/healthz`` for the CLI's ``serve --metrics``.

**Overhead contract**: instrumentation must be near-free when disabled.
The module-level flag (:func:`enabled` / :func:`set_enabled`, seeded from
the ``REPRO_TELEMETRY`` environment variable) short-circuits every entry
point: ``Telemetry.span(...)`` returns the shared :data:`NULL_SPAN`
singleton (no allocation), ``Histogram.observe`` returns before touching
its lock, and callers gate their own ``perf_counter`` bookkeeping on
:attr:`Telemetry.enabled`.  The serving benchmark gates enabled-vs-disabled
throughput within 5%.
"""

from __future__ import annotations

import itertools
import json
import threading
from bisect import bisect_left
from collections import OrderedDict, deque
from contextvars import ContextVar
from typing import Callable, Mapping, Sequence

from ..exceptions import ReproError

import os as _os

# -- the enabled flag ----------------------------------------------------------
TELEMETRY_ENV = "REPRO_TELEMETRY"
_OFF_VALUES = {"0", "off", "false", "no"}

_enabled = _os.environ.get(TELEMETRY_ENV, "on").strip().lower() not in _OFF_VALUES


def enabled() -> bool:
    """Whether telemetry capture (spans, histogram observations) is on."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Flip telemetry capture; returns the previous value.

    Registries and their registered gauges keep working either way (they
    read live counters); what the flag gates is the *capture* work — span
    trees, histogram observations, per-request timestamping.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


# -- lock witness --------------------------------------------------------------
# Debug-mode runtime recorder for lock-acquisition order.  Off by default;
# ``REPRO_LOCK_WITNESS=1`` makes the engine's locks (created through
# :func:`witnessed_lock` / named ``_ReadWriteLock``) report every acquisition
# so the per-thread nesting order can be checked against the static graph
# that ``python -m repro.analysis`` builds (LockOrder rule).
LOCK_WITNESS_ENV = "REPRO_LOCK_WITNESS"
_ON_VALUES = {"1", "on", "true", "yes"}

_witness_enabled = (
    _os.environ.get(LOCK_WITNESS_ENV, "").strip().lower() in _ON_VALUES
)


class LockOrderError(ReproError):
    """Observed lock-acquisition order is inconsistent (potential deadlock)."""


class LockWitness:
    """Records ``held -> acquired`` lock pairs per thread.

    Each thread keeps a stack of the named locks it currently holds; when it
    acquires lock ``B`` while holding ``A``, the edge ``A -> B`` is recorded.
    :meth:`assert_consistent` then rejects any inversion — observing both
    ``A -> B`` and ``B -> A`` (or a longer cycle, optionally combined with
    the statically derived edges) means two threads can deadlock.

    Re-entrant re-acquisition of one lock (``RLock``) records nothing: the
    graph orders *distinct* locks.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._edges: "dict[tuple[str, str], int]" = {}
        self._inversions: "list[str]" = []

    def _stack(self) -> "list[str]":
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def note_acquire(self, name: str) -> None:
        stack = self._stack()
        fresh = [(held, name) for held in stack if held != name]
        stack.append(name)
        if not fresh:
            return
        with self._lock:
            for edge in fresh:
                if edge not in self._edges:
                    self._edges[edge] = 0
                    inverse = (edge[1], edge[0])
                    if inverse in self._edges:
                        self._inversions.append(
                            f"{edge[0]} and {edge[1]} each acquired while "
                            f"the other was held"
                        )
                self._edges[edge] += 1

    def note_release(self, name: str) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                return

    def edges(self) -> "set[tuple[str, str]]":
        with self._lock:
            return set(self._edges)

    def inversions(self) -> "list[str]":
        with self._lock:
            return list(self._inversions)

    def reset(self) -> None:
        with self._lock:
            self._edges.clear()
            self._inversions.clear()

    def assert_consistent(
        self, static_edges: "set[tuple[str, str]] | None" = None
    ) -> None:
        """Raise :class:`LockOrderError` on inverted or cyclic order.

        With ``static_edges`` (from ``repro.analysis.engine_static_edges``)
        the observed edges are merged into the static graph first, so a
        runtime order that contradicts the *declared* order also fails.
        """
        problems = self.inversions()
        combined = self.edges() | set(static_edges or ())
        from ..analysis.lockgraph import find_cycles

        for cycle in find_cycles(combined):
            problems.append("lock-order cycle: " + " -> ".join(cycle))
        if problems:
            raise LockOrderError("; ".join(problems))


_witness: "LockWitness | None" = LockWitness() if _witness_enabled else None


def witness_enabled() -> bool:
    return _witness_enabled


def set_witness_enabled(flag: bool) -> bool:
    """Flip witness mode (tests); locks created *afterwards* are recorded."""
    global _witness_enabled, _witness
    previous = _witness_enabled
    _witness_enabled = bool(flag)
    if _witness_enabled and _witness is None:
        _witness = LockWitness()
    return previous


def lock_witness() -> "LockWitness | None":
    """The active recorder, or ``None`` when witness mode is off."""
    return _witness if _witness_enabled else None


class _WitnessedLock:
    """Wraps a ``threading.Lock``/``RLock``, reporting to the witness."""

    __slots__ = ("name", "_inner")

    def __init__(self, name: str, inner) -> None:
        self.name = name
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            witness = lock_witness()
            if witness is not None:
                witness.note_acquire(self.name)
        return ok

    def release(self) -> None:
        self._inner.release()
        witness = lock_witness()
        if witness is not None:
            witness.note_release(self.name)

    def __enter__(self) -> "_WitnessedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_WitnessedLock({self.name!r}, {self._inner!r})"


def witnessed_lock(name: str, factory: "Callable[[], object]" = threading.Lock):
    """A lock that reports to the witness — or a plain one when mode is off.

    The engine's long-lived locks are created through this factory with
    stable ``Class.attr`` names matching the static graph's node names.
    With ``REPRO_LOCK_WITNESS`` unset this returns ``factory()`` unchanged:
    zero overhead on the production path.
    """
    inner = factory()
    if not _witness_enabled:
        return inner
    return _WitnessedLock(name, inner)


# -- metrics -------------------------------------------------------------------
# Log-spaced seconds, tuned for query latencies between ~0.1ms and ~10s.
DEFAULT_LATENCY_BUCKETS: "tuple[float, ...]" = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
# Power-of-two-ish sizes, for batch-width histograms.
DEFAULT_SIZE_BUCKETS: "tuple[float, ...]" = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


class Counter:
    """A monotonically increasing tally, optionally labeled.

    Unlabeled: ``counter.inc()``.  Labeled (``labelnames`` given at
    registration): ``counter.inc(1, "numpy")`` — one value series per label
    tuple.  Unlike histogram observation, counter increments are *not*
    gated on the enabled flag: they are the registry's cheap bookkeeping
    primitive and several are read back by tests and gates.
    """

    kind = "counter"

    GUARDED_BY = {"_values": "_lock"}

    __slots__ = ("name", "help", "labelnames", "_values", "_lock")

    def __init__(self, name: str, help: str, labelnames: "tuple[str, ...]" = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: "dict[tuple[str, ...], float]" = {}
        self._lock = witnessed_lock("Counter._lock")

    def inc(self, amount: float = 1, *labelvalues: str) -> None:
        if len(labelvalues) != len(self.labelnames):
            raise ReproError(
                f"counter {self.name!r} wants labels {self.labelnames}, "
                f"got {labelvalues!r}"
            )
        with self._lock:
            self._values[labelvalues] = self._values.get(labelvalues, 0) + amount

    def value(self, *labelvalues: str) -> float:
        with self._lock:
            return self._values.get(labelvalues, 0)

    def collect(self) -> "dict[tuple[str, ...], float]":
        with self._lock:
            if not self.labelnames and not self._values:
                return {(): 0}
            return dict(self._values)


class Gauge:
    """A point-in-time value read from a callback at snapshot time.

    This is how the stats dataclasses "register into" the registry: the
    callback closes over the live counter (e.g. ``lambda:
    stats.graph_builds``), so snapshots always reflect the current session
    state and no write path pays double bookkeeping.  A callback returning
    a ``dict`` renders as one series per key (``labelnames`` names the
    single label dimension).
    """

    kind = "gauge"

    __slots__ = ("name", "help", "labelnames", "_fn")

    def __init__(
        self,
        name: str,
        help: str,
        fn: "Callable[[], float | Mapping[str, float]]",
        labelnames: "tuple[str, ...]" = (),
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._fn = fn

    def collect(self) -> "dict[tuple[str, ...], float]":
        value = self._fn()
        if isinstance(value, Mapping):
            return {(str(key),): val for key, val in value.items()}
        return {(): value}


class Histogram:
    """Fixed-bucket distribution with interpolated percentiles.

    ``buckets`` are the *upper bounds* of each bucket (ascending); values
    beyond the last bound land in an implicit overflow bucket.
    :meth:`percentile` walks the cumulative counts and linearly
    interpolates inside the bucket holding the target rank — the classic
    Prometheus ``histogram_quantile`` estimate, except the overflow bucket
    interpolates toward the observed maximum instead of clamping to the
    last bound.  ``observe`` is a no-op while telemetry is disabled.
    """

    kind = "histogram"

    # _sum/_count are ``:mutate``: the ``count``/``sum``/``summary``
    # accessors do documented racy point-reads of one scalar each.
    GUARDED_BY = {
        "_counts": "_lock",
        "_sum": "_lock:mutate",
        "_count": "_lock:mutate",
        "_min": "_lock",
        "_max": "_lock",
    }

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count",
                 "_min", "_max", "_lock")

    def __init__(
        self, name: str, help: str, buckets: "Sequence[float] | None" = None
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ReproError(f"histogram {name!r} wants ascending bucket bounds")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = 0.0
        self._lock = witnessed_lock("Histogram._lock")

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        position = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[position] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, quantile: float) -> float:
        """The interpolated ``quantile`` (in ``[0, 1]``) of the distribution.

        An empty histogram reports ``0.0`` for every quantile (there is no
        distribution to estimate — callers render it as "no samples", they
        do not get ``inf``/``nan`` arithmetic artifacts).  The bucket
        holding the target uses the observed ``min`` as its lower edge when
        no observation precedes it (the overflow bucket's upper edge is the
        observed ``max`` already): a distribution living entirely in the
        overflow bucket interpolates within ``[min, max]`` instead of
        upward from the last bucket *bound* — a value that was never
        observed — and a single-valued distribution reports that exact
        value at every quantile.
        """
        if not 0 <= quantile <= 1:
            raise ReproError(f"quantile must be in [0, 1], got {quantile}")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            target = quantile * total
            cumulative = 0
            lower = 0.0
            for position, count in enumerate(self._counts):
                if count == 0:
                    lower = (
                        self.buckets[position]
                        if position < len(self.buckets)
                        else lower
                    )
                    continue
                upper = (
                    self.buckets[position]
                    if position < len(self.buckets)
                    else max(self._max, lower)
                )
                if cumulative + count >= target:
                    # The observed minimum is a tighter lower edge than the
                    # bucket bound when no observation precedes this bucket
                    # — without it, a distribution living entirely in the
                    # overflow bucket interpolates upward from the last
                    # bucket *bound*, a value that was never observed.
                    if cumulative == 0:
                        lower = max(lower, self._min)
                    fraction = (target - cumulative) / count
                    estimate = lower + (upper - lower) * fraction
                    # Never estimate outside the observed range.
                    return min(max(estimate, self._min), self._max)
                cumulative += count
                lower = upper
            return self._max  # pragma: no cover - arithmetic guard

    def collect(self) -> "dict":
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max,
                "bucket_counts": list(self._counts),
            }

    def summary(self) -> "dict":
        """The snapshot form: count, sum and the three canonical percentiles."""
        return {
            "count": self._count,
            "sum": self._sum,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    One registry per session (:class:`~repro.engine.session.Engine` or
    :class:`~repro.engine.sharding.ShardedEngine`); the serving layer
    registers its gauges into the *engine's* registry so a single snapshot
    covers admission, evaluation and supersteps.  Registration is
    get-or-create for counters and histograms (same name → same instrument)
    and last-wins for gauges (a new ``QueryServer`` over the same engine
    re-points the serving gauges at its own stats).
    """

    GUARDED_BY = {"_metrics": "_lock"}

    def __init__(self) -> None:
        self._metrics: "OrderedDict[str, object]" = OrderedDict()
        self._lock = witnessed_lock("MetricsRegistry._lock")

    def counter(
        self, name: str, help: str = "", labelnames: "tuple[str, ...]" = ()
    ) -> Counter:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Counter):
                    raise ReproError(f"{name!r} is already a {existing.kind}")
                return existing
            metric = Counter(name, help, labelnames)
            self._metrics[name] = metric
            return metric

    def gauge(
        self,
        name: str,
        help: str,
        fn: "Callable[[], float | Mapping[str, float]]",
        labelnames: "tuple[str, ...]" = (),
    ) -> Gauge:
        metric = Gauge(name, help, fn, labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None and not isinstance(existing, Gauge):
                raise ReproError(f"{name!r} is already a {existing.kind}")
            self._metrics[name] = metric  # gauges: last registration wins
        return metric

    def histogram(
        self, name: str, help: str = "", buckets: "Sequence[float] | None" = None
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ReproError(f"{name!r} is already a {existing.kind}")
                return existing
            metric = Histogram(name, help, buckets)
            self._metrics[name] = metric
            return metric

    def __len__(self) -> int:
        return len(self._metrics)  # repro: allow(LockDiscipline) dict len() is atomic under the GIL

    def __contains__(self, name: str) -> bool:
        return name in self._metrics  # repro: allow(LockDiscipline) dict membership is atomic under the GIL

    def _items(self) -> "list[tuple[str, object]]":
        with self._lock:
            return list(self._metrics.items())

    def snapshot(self) -> "dict":
        """A JSON-ready view of every metric, under stable key names.

        Counters and gauges map to numbers (labeled series to a
        ``{label_value: number}`` dict); histograms map to
        ``{count, sum, p50, p95, p99}``.  Key names are part of the
        documented surface (see README "Observability") — the CLI's
        ``--stats``, the ``!stats`` verb and the ``/metrics`` endpoint all
        derive from this one dict.
        """
        out: "dict[str, object]" = {}
        for name, metric in self._items():
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                series = metric.collect()
                if () in series and len(series) == 1:
                    out[name] = series[()]
                else:
                    out[name] = {labels[0]: value for labels, value in series.items()}
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        lines: "list[str]" = []
        for name, metric in self._items():
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Histogram):
                lines.append(f"# TYPE {name} histogram")
                data = metric.collect()
                cumulative = 0
                for bound, count in zip(metric.buckets, data["bucket_counts"]):
                    cumulative += count
                    lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {data["count"]}')
                lines.append(f"{name}_sum {_fmt(data['sum'])}")
                lines.append(f"{name}_count {data['count']}")
                continue
            lines.append(f"# TYPE {name} {metric.kind}")
            for labelvalues, value in sorted(metric.collect().items()):
                if labelvalues:
                    pairs = ",".join(
                        f'{label}="{value_}"'
                        for label, value_ in zip(metric.labelnames, labelvalues)
                    )
                    lines.append(f"{name}{{{pairs}}} {_fmt(value)}")
                else:
                    lines.append(f"{name} {_fmt(value)}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Compact number formatting: integers stay integral, floats stay short."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return format(value, ".9g")


def render_text(snapshot: Mapping) -> "list[str]":
    """Render a registry snapshot as stable, sorted ``name value`` lines.

    This is the unified ``--stats`` surface: labeled series print as
    ``name{label="value"} n``, histograms expand to ``name_count`` /
    ``name_sum`` / ``name_p50`` / ``name_p95`` / ``name_p99``.
    """
    lines: "list[str]" = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, Mapping):
            if "count" in value and "p50" in value:  # histogram summary
                for stat in ("count", "sum", "p50", "p95", "p99"):
                    lines.append(f"{name}_{stat} {_fmt(value[stat])}")
            else:
                for label in sorted(value):
                    lines.append(f'{name}{{{label}}} {_fmt(value[label])}')
        else:
            lines.append(f"{name} {_fmt(value)}")
    return lines


# -- tracing -------------------------------------------------------------------
_SPAN_IDS = itertools.count(1)
_TRACE_IDS = itertools.count(1)

try:  # perf_counter resolved once; spans are created on hot-ish paths
    from time import perf_counter
except ImportError:  # pragma: no cover - stdlib always has it
    raise


class Trace:
    """One request's span tree, assembled as its spans end.

    Spans append themselves on creation (under a small lock — the superstep
    scheduler creates sibling spans from worker threads); the tree is
    bounded by ``max_spans``, beyond which spans are counted but dropped,
    so a pathological fixpoint cannot grow a trace without limit.
    """

    # ``spans`` is deliberately *not* guarded: workers append via ``_adopt``
    # (under the lock) while the tree is live, and readers only walk it after
    # the root span ended — the post-completion read is the documented idiom.
    GUARDED_BY = {"dropped": "_lock:mutate"}

    __slots__ = ("trace_id", "tracer", "spans", "dropped", "max_spans", "_lock")

    def __init__(self, tracer: "Tracer | None", max_spans: int = 512) -> None:
        self.trace_id = f"t{next(_TRACE_IDS)}"
        self.tracer = tracer
        self.spans: "list[Span]" = []
        self.dropped = 0
        self.max_spans = max_spans
        self._lock = witnessed_lock("Trace._lock")

    def _adopt(self, span: "Span") -> bool:
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return False
            self.spans.append(span)
            return True

    @property
    def root(self) -> "Span":
        return self.spans[0]

    @property
    def duration(self) -> float:
        root = self.root
        return root.duration if root.duration is not None else 0.0

    def to_dict(self) -> dict:
        root = self.root
        return {
            "trace_id": self.trace_id,
            "name": root.name,
            "duration_s": self.duration,
            "dropped_spans": self.dropped,
            "spans": [span.to_dict() for span in self.spans],
        }

    def render(self) -> "list[str]":
        """An indented text tree of the trace, one line per span."""
        children: "dict[int | None, list[Span]]" = {}
        for span in self.spans:
            children.setdefault(span.parent_id, []).append(span)

        lines: "list[str]" = []

        def walk(span: "Span", depth: int) -> None:
            duration = span.duration if span.duration is not None else 0.0
            attrs = ""
            if span.attributes:
                inner = ", ".join(
                    f"{key}={value}" for key, value in sorted(span.attributes.items())
                )
                attrs = f"  {{{inner}}}"
            lines.append(f"{'  ' * depth}{span.name} {duration * 1000:.3f}ms{attrs}")
            for child in children.get(span.span_id, ()):
                walk(child, depth + 1)

        root = self.root
        lines.append(f"trace {self.trace_id} ({root.name}, {self.duration * 1000:.3f}ms)")
        walk(root, 1)
        if self.dropped:
            lines.append(f"  ... {self.dropped} spans dropped (cap {self.max_spans})")
        return lines


class Span:
    """One timed operation inside a trace.

    Use as a context manager (``with tele.span("compile") as span:``) for
    the common nested case, or hold it and call :meth:`end` explicitly when
    the operation's lifetime crosses threads or awaits (the serving layer's
    batch root span does both).  ``set(**attrs)`` attaches attributes at
    any point before :meth:`end`.
    """

    __slots__ = ("trace", "span_id", "parent_id", "name", "attributes",
                 "start", "duration", "_token")

    def __init__(
        self,
        trace: Trace,
        name: str,
        parent_id: "int | None",
        attributes: "dict | None" = None,
        start: "float | None" = None,
    ) -> None:
        self.trace = trace
        self.span_id = next(_SPAN_IDS)
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes or {}
        self.start = perf_counter() if start is None else start
        self.duration: "float | None" = None
        self._token = None
        trace._adopt(self)

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    def set(self, **attrs) -> "Span":
        self.attributes.update(attrs)
        return self

    def child(self, name: str, **attrs) -> "Span":
        """A new child span of this one (explicit parentage, any thread)."""
        return Span(self.trace, name, self.span_id, attrs or None)

    def event(self, name: str, start: float, duration: float, **attrs) -> "Span":
        """A pre-timed child span — for intervals measured elsewhere, like
        the admission wait between a bucket's creation and its flush."""
        span = Span(self.trace, name, self.span_id, attrs or None, start=start)
        span.duration = duration
        return span

    def end(self, **attrs) -> float:
        """Close the span; the root span's end records the whole trace."""
        if self.duration is None:
            self.duration = perf_counter() - self.start
            if attrs:
                self.attributes.update(attrs)
            if self.parent_id is None and self.trace.tracer is not None:
                self.trace.tracer.record(self.trace)
        return self.duration

    # -- context manager: activate in the current context ---------------------
    def __enter__(self) -> "Span":
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.attributes.setdefault("error", repr(exc))
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        self.end()

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace.trace_id}, "
            f"duration={self.duration})"
        )


class _NullSpan:
    """The shared do-nothing span: what every capture call gets when
    telemetry is disabled.  A singleton, so the disabled path allocates
    nothing; every method returns ``self`` or a constant."""

    __slots__ = ()

    trace_id = ""
    span_id = 0
    parent_id = None
    name = ""
    attributes: dict = {}
    start = 0.0
    duration = 0.0

    def set(self, **attrs) -> "_NullSpan":
        return self

    def child(self, name: str, **attrs) -> "_NullSpan":
        return self

    def event(self, name: str, start: float, duration: float, **attrs) -> "_NullSpan":
        return self

    def end(self, **attrs) -> float:
        return 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()

# The active span of the current thread/task context.  Spans from *any*
# session's Telemetry nest under it — a shard engine's compile span attaches
# to the sharded evaluation trace that is current when it runs.
_CURRENT_SPAN: "ContextVar[Span | _NullSpan]" = ContextVar(
    "repro_current_span", default=NULL_SPAN
)


def current_span() -> "Span | _NullSpan":
    return _CURRENT_SPAN.get()


class _Under:
    """Context manager that activates an existing span without ending it."""

    __slots__ = ("span", "_token")

    def __init__(self, span: "Span | _NullSpan") -> None:
        self.span = span
        self._token = None

    def __enter__(self) -> "Span | _NullSpan":
        self._token = _CURRENT_SPAN.set(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None


class Tracer:
    """Bounded trace storage: a ring buffer plus a slow-query log.

    The ring buffer (``capacity`` most recent traces) answers ``!trace
    <id>`` and ``engine --explain``; the slow log keeps the
    ``slow_capacity`` *worst* traces by root duration — the ``!slow N``
    surface — independent of recency, so one pathological request survives
    a flood of fast ones.
    """

    GUARDED_BY = {
        "_traces": "_lock",
        "_slow": "_lock",
        "recorded": "_lock:mutate",
    }

    def __init__(self, capacity: int = 128, slow_capacity: int = 32) -> None:
        if capacity < 1 or slow_capacity < 1:
            raise ReproError("tracer capacities must be positive")
        self.capacity = capacity
        self.slow_capacity = slow_capacity
        self._traces: "deque[Trace]" = deque(maxlen=capacity)
        self._slow: "list[Trace]" = []  # kept sorted, worst first
        self._lock = witnessed_lock("Tracer._lock")
        self.recorded = 0

    def record(self, trace: Trace) -> None:
        with self._lock:
            self.recorded += 1
            self._traces.append(trace)
            slow = self._slow
            duration = trace.duration
            if len(slow) < self.slow_capacity or duration > slow[-1].duration:
                slow.append(trace)
                slow.sort(key=lambda entry: entry.duration, reverse=True)
                del slow[self.slow_capacity:]

    def last(self) -> "Trace | None":
        with self._lock:
            return self._traces[-1] if self._traces else None

    def get(self, trace_id: str) -> "Trace | None":
        with self._lock:
            for trace in reversed(self._traces):
                if trace.trace_id == trace_id:
                    return trace
            for trace in self._slow:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def slowest(self, n: int) -> "list[Trace]":
        with self._lock:
            return list(self._slow[: max(0, n)])

    def traces(self) -> "list[Trace]":
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        return len(self._traces)  # repro: allow(LockDiscipline) deque len() is atomic under the GIL


class Telemetry:
    """One session's registry + tracer, with the span-capture helpers.

    Both session kinds hold one as ``self.metrics``; the serving layer
    reuses its engine's instance, so one snapshot — and one trace tree per
    request — covers the whole stack.  Every capture helper checks the
    module-level enabled flag first and hands back :data:`NULL_SPAN`
    without allocating when it is off.
    """

    def __init__(
        self,
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry.gauge(
            "telemetry_enabled", "whether capture is on", lambda: 1 if _enabled else 0
        )
        self.registry.gauge(
            "telemetry_traces_recorded",
            "completed root traces recorded",
            lambda: self.tracer.recorded,
        )

    @property
    def enabled(self) -> bool:
        return _enabled

    def span(self, name: str, **attrs) -> "Span | _NullSpan":
        """A new span under the current context span (or a new root trace).

        Use as a context manager; entering activates it for nested calls on
        the same thread, exiting ends it (and records the trace when it was
        the root).
        """
        if not _enabled:
            return NULL_SPAN
        parent = _CURRENT_SPAN.get()
        if parent is NULL_SPAN:
            trace = Trace(self.tracer)
            return Span(trace, name, None, attrs or None)
        return Span(parent.trace, name, parent.span_id, attrs or None)

    def span_under(self, parent: "Span | _NullSpan", name: str, **attrs):
        """A new span under an *explicit* parent — the cross-thread form."""
        if not _enabled or parent is NULL_SPAN:
            return NULL_SPAN
        return Span(parent.trace, name, parent.span_id, attrs or None)

    def under(self, span: "Span | _NullSpan") -> _Under:
        """Activate ``span`` as the current span for a block, without ending
        it — how a pool thread joins the trace the event loop started."""
        return _Under(span if _enabled else NULL_SPAN)

    def snapshot(self) -> dict:
        return self.registry.snapshot()


# -- HTTP export ---------------------------------------------------------------
class TelemetryHTTPServer:
    """A stdlib HTTP thread serving ``/metrics`` and ``/healthz``.

    ``port=0`` binds an ephemeral port; read the real one off
    :attr:`address` after :meth:`start`.  The handler reads the telemetry
    registry on every request, so a long-lived scrape loop always sees live
    values; ``/healthz`` answers ``ok`` while the thread runs — liveness,
    not load.
    """

    def __init__(
        self, telemetry: Telemetry, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        # Imported here, not at module import: ``http.server`` drags in
        # ``email``, ``html``, ``mimetypes`` and ``socketserver`` (~2.4 MB
        # resident), which no process that never exports metrics over HTTP
        # should pay for.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        registry = telemetry.registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = registry.render_prometheus().encode("utf-8")
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                elif path == "/healthz":
                    body = b"ok\n"
                    content_type = "text/plain; charset=utf-8"
                else:
                    self.send_error(404, "unknown path (try /metrics or /healthz)")
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args) -> None:  # noqa: A002
                pass  # scrapes must not spam the serving process's stderr

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread: "threading.Thread | None" = None

    @property
    def address(self) -> "tuple[str, int]":
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> "tuple[str, int]":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-metrics-http",
                daemon=True,
            )
            self._thread.start()
        return self.address

    def close(self) -> None:
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "TelemetryHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- trace export helpers ------------------------------------------------------
def trace_to_json(trace: Trace) -> str:
    """One-line JSON of a trace — the ``!trace`` / ``!slow`` wire form."""
    return json.dumps(trace.to_dict(), separators=(",", ":"), default=str)


def slow_log_json(tracer: Tracer, n: int) -> str:
    """One-line JSON array of the ``n`` worst traces with span breakdowns."""
    return json.dumps(
        [trace.to_dict() for trace in tracer.slowest(n)],
        separators=(",", ":"),
        default=str,
    )
