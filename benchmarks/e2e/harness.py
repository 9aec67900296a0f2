"""Timing protocol, span recorder and result assembly of the e2e benchmark.

One *run* of a workload is::

    set-up x SETUP_REPEATS (median reported)  ->  oracle pass (untimed)
    -> warm-up lap -> timed laps of the same seeded op list, as many as
    fit in ``--seconds`` (at least MIN_LAPS)

State is restored at every lap boundary, outside the timed region, so every
lap does identical work; a timing metric is built from the **best time seen**
(of each op where ops are timed one by one, else of a lap), because
interference on a shared box only ever slows work down.  Everything here
is workload-agnostic: the workloads (``workloads/``) supply the ops, the
call under test and the layer decomposition.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Timed laps of a run: as many as fit in ``--seconds``, never fewer.
MIN_LAPS = 3
#: Set-ups per run, each on fresh objects; the median is ``setup_s``.
SETUP_REPEATS = 5
#: Façade laps of a traced run (the best one is the end-to-end time the
#: decomposed lap is compared with; their spread is ``harness.lap_spread_pct``).
TRACE_FACADE_LAPS = 2

#: The steps of one set-up, in order; each is a span and a per-layer metric.
SETUP_STEPS = (
    ("workloads.generate", "generate"),
    ("csr.build", "open_cold"),
    ("snapshot.save", "save"),
    ("snapshot.open_warm", "open_warm"),
    ("serving.start", "start"),
)


# -- spans ---------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans: ``(name, start, end, parent, op)``, written at the end.

    ``span()`` nests by a stack (the single-caller workloads); ``add()``
    records a pre-timed span with an explicit parent (the served workload,
    whose requests interleave on the event loop and the flush-pool thread).
    """

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []

    @contextmanager
    def span(self, name: str, op: "int | None" = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent=None, op=None) -> None:
        self.spans.append([name, start, end, parent, op])

    def self_times(self) -> "dict[str, float]":
        """Per span name, the summed duration not covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: "dict[str, float]" = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _p, _o in self.spans if n == name)

    def durations(self, name: str) -> "list[float]":
        return [end - start for n, start, end, _p, _o in self.spans if n == name]

    def to_json(self) -> "list[dict]":
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": o}
            for i, (n, s, e, p, o) in enumerate(self.spans)
        ]


# -- laps ----------------------------------------------------------------------
@dataclass
class Lap:
    """One pass over the op list: per-op wall times and answer digests.

    ``cpus`` holds the per-op CPU times when one caller timed the ops one by
    one; it is empty where ops overlap (the served workload).
    """

    wall: float
    cpu: float
    latencies: "list[float]"
    digests: list
    cpus: "list[float]" = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies)


def sync_lap(ops, call, digest) -> Lap:
    """Closed loop, one caller: time exactly the public call of each op.

    The answer digest is taken outside the timed region; a raising op gets
    the digest ``None`` (which never equals a reference digest).
    """
    latencies: "list[float]" = []
    cpus: "list[float]" = []
    digests: list = []
    for op in ops:
        cpu_start = process_time()
        start = perf_counter()
        try:
            result = call(op)
        except Exception as error:  # counted as a failed op, never fatal
            result = error
        end = perf_counter()
        cpus.append(process_time() - cpu_start)
        latencies.append(end - start)
        digests.append(None if isinstance(result, Exception) else digest(result))
    return Lap(sum(latencies), sum(cpus), latencies, digests, cpus)


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def answers_digest(results: "dict") -> tuple:
    """Order-independent digest of a ``{source: answer set}`` map.

    In-process only (``hash`` of ``str`` is salted per process): digests are
    compared between laps and against the oracle inside one run.
    """
    return tuple(
        sorted((hash(source), len(answers), sum(map(hash, answers)))
               for source, answers in results.items())
    )


def ops_digest(ops: list) -> str:
    """Process-stable digest of the op list (the inputs, not the answers)."""
    return hashlib.blake2b(repr(ops).encode(), digest_size=8).hexdigest()


def count_failures(laps: "list[Lap]", expected: "dict[int, object]") -> int:
    """Ops whose digest differs from the first lap's or from the oracle's."""
    reference = laps[0].digests
    failed = 0
    for number, lap in enumerate(laps):
        for index, digest in enumerate(lap.digests):
            if digest is None or digest != reference[index]:
                failed += 1
            elif number == 0 and index in expected and expected[index] != digest:
                failed += 1
    return failed


def best_time_metrics(laps: "list[Lap]") -> "dict[str, float]":
    """The four timing metrics from the best time seen.

    Where one caller timed the ops one by one, op ``i`` does identical work
    in every lap, so its best time over the laps is its cost with the least
    interference; the metrics are taken over those per-op bests (10 runs of
    ``web-kernel-batch`` in a noisy hour: throughput spread 0.112 by best
    lap, 0.070 by per-op best; p90 0.244 against 0.124).  Where ops overlap,
    a latency is queueing time and only whole laps compare: the best lap.
    """
    if all(lap.cpus for lap in laps):
        walls = [min(times) for times in zip(*(lap.latencies for lap in laps))]
        cpus = [min(times) for times in zip(*(lap.cpus for lap in laps))]
        return {
            "throughput_ops_s": len(walls) / sum(walls),
            "latency_p50_ms": percentile(walls, 0.50) * 1e3,
            "latency_p90_ms": percentile(walls, 0.90) * 1e3,
            "cpu_ms_per_op": sum(cpus) / len(cpus) * 1e3,
        }
    return {
        "throughput_ops_s": max(lap.ops / lap.wall for lap in laps),
        "latency_p50_ms": min(percentile(lap.latencies, 0.50) for lap in laps) * 1e3,
        "latency_p90_ms": min(percentile(lap.latencies, 0.90) for lap in laps) * 1e3,
        "cpu_ms_per_op": min(lap.cpu / lap.ops for lap in laps) * 1e3,
    }


def lap_spread_pct(laps: "list[Lap]") -> float:
    walls = [lap.wall for lap in laps]
    return 100.0 * (max(walls) - min(walls)) / statistics.median(walls)


# -- set-up --------------------------------------------------------------------
def set_up(factory, tmpdir: Path, recorder: SpanRecorder):
    """One full set-up on fresh objects; returns ``(workload, seconds)``.

    generate inputs -> open from the Instance -> save -> warm open from the
    snapshot -> server start.  The workload serves from the warm-opened
    session.  Import time is excluded (it happened before this call).
    """
    if tmpdir.exists():
        shutil.rmtree(tmpdir)
    tmpdir.mkdir(parents=True)
    workload = factory()
    start = perf_counter()
    with recorder.span("setup"):
        for name, method in SETUP_STEPS:
            with recorder.span(name):
                getattr(workload, method)(tmpdir)
    return workload, perf_counter() - start


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# -- environment ---------------------------------------------------------------
def environment(backend: str) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    revision = "unknown"  # the driver's checkout is not a git repository
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": os.getloadavg()[0],
        "git_rev": revision,
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one run -------------------------------------------------------------------
def run_workload(cls, seed: int, *, smoke: bool, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; returns the full record."""
    if cls.pin_one_cpu and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tmpdir = OUT / f"tmp-{cls.name}-{os.getpid()}"
    recorder = SpanRecorder()
    workload = None
    try:
        setups: "list[float]" = []
        for _ in range(1 if trace else SETUP_REPEATS):
            if workload is not None:
                workload.stop()
            workload, elapsed = set_up(lambda: cls(seed, smoke), tmpdir, recorder)
            setups.append(elapsed)
        env = environment(workload.backend())
        ops = workload.make_ops(workload.smoke_ops if smoke else workload.lap_ops)
        expected = workload.oracle(ops)
        workload.lap(ops[: max(1, len(ops) // 5)])  # warm-up: caches, lowering
        workload.restore()
        record = {
            "workload": cls.name,
            "seed": seed,
            "env": env,
            "ops_per_lap": len(ops),
            "ops_digest": ops_digest(ops),
            "setup_runs_s": setups,
        }
        if trace:
            record.update(_traced(workload, ops, expected, recorder))
        else:
            record.update(_untraced(workload, ops, expected, seconds, setups))
        return record
    finally:
        if workload is not None:
            workload.stop()
        shutil.rmtree(tmpdir, ignore_errors=True)


def _timed_laps(workload, ops, seconds: float, least: int) -> "list[Lap]":
    """``least`` laps, then more while another lap of the mean length still
    fits in ``seconds``: a slow box runs fewer laps, not a longer run."""
    done: "list[Lap]" = []
    spent = 0.0
    while len(done) < least or spent + spent / len(done) <= seconds:
        before = workload.counts()
        lap = workload.lap(ops)
        after = workload.counts()
        lap.counts = {key: after[key] - before[key] for key in after}
        workload.restore()
        done.append(lap)
        spent += lap.wall
    return done


def _untraced(workload, ops, expected, seconds: float, setups) -> dict:
    done = _timed_laps(workload, ops, seconds, MIN_LAPS)
    failed = count_failures(done, expected)
    # With one caller the work counts must repeat exactly, lap after lap.
    counts_repeat = all(lap.counts == done[0].counts for lap in done)
    metrics = best_time_metrics(done)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "correct": failed == 0 and counts_repeat,
        "attempted": sum(lap.ops for lap in done),
        "failed": failed,
        "metrics": metrics,
        "counts_per_lap": done[0].counts,
        "counts_repeat": counts_repeat,
        "lap_walls_s": [lap.wall for lap in done],
        "lap_spread_pct": lap_spread_pct(done),
    }


def _traced(workload, ops, expected, recorder: SpanRecorder) -> dict:
    facade = _timed_laps(workload, ops, 0.0, TRACE_FACADE_LAPS)
    facade_wall = min(lap.wall for lap in facade)
    layers = workload.trace(ops, recorder, facade)
    failed = count_failures(facade, expected) + layers.pop("_failed")
    attempted = sum(lap.ops for lap in facade) + len(ops)
    # The decomposed lap: one "op" span per op, the layer calls beneath it.
    # (The served workload decomposes by subtraction and says so itself.)
    ops_wall = recorder.total("op")
    traced_wall = layers.pop("_traced_wall", ops_wall)
    layer_sum = layers.pop("_layer_sum", ops_wall - recorder.self_times().get("op", 0.0))
    steps = {name: recorder.total(name) for name, _method in SETUP_STEPS}
    metrics = dict(layers)
    metrics.update({
        "workloads.generate_s": steps["workloads.generate"],
        "csr.build_s": steps["csr.build"],
        "snapshot.save_s": steps["snapshot.save"],
        "snapshot.open_warm_s": steps["snapshot.open_warm"],
        "snapshot.bytes_per_edge": workload.snapshot_bytes / workload.edge_count(),
        "harness.trace_overhead_pct": 100.0 * (traced_wall - facade_wall) / facade_wall,
        "harness.unattributed_share": (facade_wall - layer_sum) / facade_wall,
        "harness.lap_spread_pct": lap_spread_pct(facade),
    })
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload.name}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload.name,
                "facade_wall_s": facade_wall,
                "traced_wall_s": traced_wall,
                "layer_self_time_s": recorder.self_times(),
                "spans": recorder.to_json(),
            },
            handle,
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "counts_per_lap": facade[0].counts,
    }


def emit(record: dict, units: "dict[str, str]") -> None:
    """Print the human-readable record, then the contract's one JSON line."""
    for key in ("workload", "seed", "env", "ops_per_lap", "ops_digest",
                "setup_runs_s", "lap_walls_s", "lap_spread_pct",
                "counts_per_lap", "counts_repeat"):
        if key in record:
            print(f"# {key}: {json.dumps(record[key])}")
    sys.stdout.flush()
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in record["metrics"].items()
        },
    }))
