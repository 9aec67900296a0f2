"""cProfile harness for the engine's hot kernels, the query rewriter and
the sharded CRPQ path.

``--target kernels`` (the default) profiles the warm batched evaluation path
— the loop the throughput benchmark gates — once per requested backend, over
the same mid-size random-graph workload flavor ``bench_engine_throughput.py``
times.  ``--target rewrite`` profiles ``rewrite_query`` over the query texts
of the ``site-rewrite-cold`` benchmark workload under the CS-department word
equalities.  ``--target crpq`` profiles ``ShardedEngine.query_conjunctive``
over the op list of the ``clustered-sharded-crpq`` benchmark workload, on
the workload's own session and pinned to one CPU when the workload pins
itself — and, since what matters there is the gap to not sharding at all,
times the same ops on a monolithic ``Engine`` over the same instance
beside it.  ``--target
serve`` profiles ``serve_stream`` over the request lines of the
``web-served-point`` workload (its op mix, 64 in flight, pinned to one CPU
like the workload) on a fresh session, the event-loop thread and the
flush-pool thread each under a profile of its own.  ``--target edit``
profiles the edit-then-read transactions of the ``web-edit-read``
workload on a fresh engine, and counts per transaction how the numpy
kernel's product lowering was had (built, patched or a hit) beside the
time in the lowering, the fixpoint and answer materialisation.  Either way the
top-N frames (by cumulative and by self time) go to a gitignored report so
perf work starts from measurements instead of guesses::

    PYTHONPATH=src python scripts/profile.py                # all backends
    PYTHONPATH=src python scripts/profile.py --backend packed
    PYTHONPATH=src python scripts/profile.py --target rewrite
    PYTHONPATH=src python scripts/profile.py --target crpq
    PYTHONPATH=src python scripts/profile.py --target serve
    PYTHONPATH=src python scripts/profile.py --target edit
    PYTHONPATH=src python scripts/profile.py --quick        # check.sh step

The report lands in ``PROFILE_report.txt`` (override with ``--out``).  The
console gets each section's total time plus its top self-time frames, and
both get the work counts beside the timings: per query the kernels' own
``BatchRun.rounds`` / ``edges_gathered`` / ``peak_frontier_rows``, the ms
of ``run_batch`` answering node ids and oids and of mapping id answers with
``oids_of``, and how often the ``query_batch`` facade calls ``oids_of`` per
op (0: its answers leave the kernel as oids); per text
the rewriter's ``generated`` / ``proofs_attempted`` / ``skipped_by_cost``
and its ``generate_ms`` / ``prove_ms`` split, also averaged over the texts
it improved and over the ones it returned unchanged, and the adoptions
counted by the evidence method that justified them (``proved_by``); per
CRPQ template the op's milliseconds sharded and monolithic, per op the
kernel runs (sharded and monolithic), the join steps' q-error, and the
atom-time ratio the benchmark
trace reports as ``sharding.overhead_ratio``; per 1 000 served lines the
``regex.parse`` calls (loop and flush-pool threads apart), ``normalize``
calls, event-loop callbacks, asyncio ``Handle``s, ``create_task`` calls and
flushes, beside the loop thread's CPU (``time.thread_time``, from an
unprofiled pass and from the profiled one) and its wall time outside the
selector (which also counts GIL waits and the profiler); per
1 000 edit transactions the product lowerings built, patched and hit, and
the milliseconds in the lowering, the fixpoint and materialisation.
Stdlib only — ``cProfile``/``pstats`` ship with CPython.
"""

from __future__ import annotations

import sys
from pathlib import Path

# This file is named like the stdlib ``profile`` module cProfile imports;
# drop the script directory from the import path so cProfile finds the
# real one (running ``python scripts/profile.py`` puts scripts/ first).
_HERE = str(Path(__file__).resolve().parent)
_ROOT = Path(__file__).resolve().parent.parent
sys.path = [entry for entry in sys.path if entry not in ("", _HERE)]
sys.path.insert(0, str(_ROOT / "src"))

import argparse  # noqa: E402
import asyncio  # noqa: E402
import cProfile  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import random  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402

from repro.engine.executor import available_backends, run_batch  # noqa: E402
from repro.engine.session import Engine  # noqa: E402
from repro.graph.instance import Instance  # noqa: E402
from repro.optimize.rewriter import rewrite_query  # noqa: E402
from repro.workloads import cs_department_site  # noqa: E402

del _HERE

QUERIES = ("a*.b", "a.(b|c)*", "(a|b)*.c", "a*.b*.c")


def build_instance(nodes: int, edges: int, seed: int) -> Instance:
    rng = random.Random(seed)
    instance = Instance()
    for index in range(nodes):
        instance.add_object(f"n{index}")
    labels = ("a", "b", "c")
    for _ in range(edges):
        instance.add_edge(
            f"n{rng.randrange(nodes)}",
            rng.choice(labels),
            f"n{rng.randrange(nodes)}",
        )
    return instance


def profile_backend(
    backend: str,
    instance: Instance,
    sources: "list[str]",
    repeats: int,
    top: int,
) -> "tuple[pstats.Stats, float, list[str]]":
    """One warm profile: compile caches hot, only the kernel in the loop.

    Returns the stats, the profiled seconds and the kernel-work lines."""
    engine = Engine.open(instance, backend=backend)
    for query in QUERIES:  # warm the compile + successor caches
        engine.query_batch(query, sources)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(repeats):
        for query in QUERIES:
            engine.query_batch(query, sources)
    profiler.disable()
    stats = pstats.Stats(profiler)
    total = stats.total_tt
    stats.sort_stats("tottime")
    facade_ops = repeats * len(QUERIES)
    work = kernel_work(engine, sources)
    work.append(
        "facade oids_of calls per op (profiled query_batch): "
        f"{calls_of(stats, type(engine.graph).oids_of) / facade_ops:.2f}"
    )
    return stats, total, work


def kernel_work(engine: Engine, sources: "list[str]") -> "list[str]":
    """Per query, the kernel's own work counts for one (unprofiled) batch —
    what the time in the cProfile table was spent *on* — and, best of
    :data:`TIMING_PASSES`, the ms of ``run_batch`` answering node ids, of
    ``run_batch(as_oids=True)`` (the session's call, answers built as
    oids), and of mapping the id answers with ``oids_of`` afterwards (the
    materialisation ``as_oids`` folds into the run)."""
    graph, backend = engine.graph, engine.backend
    node_ids = [graph.node_id(source) for source in sources]
    lines = []
    for query in QUERIES:
        compiled = engine.compiled(query)
        ids_s = oids_s = materialise_s = float("inf")
        for _ in range(TIMING_PASSES):
            started = time.perf_counter()
            run = run_batch(graph, compiled, node_ids, backend=backend)
            ran = time.perf_counter()
            for answers in run.answers:
                graph.oids_of(answers)
            mapped = time.perf_counter()
            run_batch(graph, compiled, node_ids, backend=backend, as_oids=True)
            ids_s = min(ids_s, ran - started)
            materialise_s = min(materialise_s, mapped - ran)
            oids_s = min(oids_s, time.perf_counter() - mapped)
        counts = " ".join(f"{name}={value}" for name, value in run.work_counts().items())
        lines.append(
            f"  {query:<10} visited_pairs={run.visited_pairs} {counts} "
            f"run_batch_ms={ids_s * 1e3:.3f} as_oids_ms={oids_s * 1e3:.3f} "
            f"oids_of_materialise_ms={materialise_s * 1e3:.3f}"
        )
    return lines


def render_report(
    title: str, stats: pstats.Stats, total: float, top: int, work: "list[str]"
) -> str:
    buffer = io.StringIO()
    stats.stream = buffer
    print(f"== {title} ({total:.4f}s profiled) ==", file=buffer)
    print(*work, sep="\n", file=buffer)
    stats.sort_stats("tottime").print_stats(top)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def hottest_frames(stats: pstats.Stats, count: int = 3) -> str:
    rows = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)
    return ", ".join(
        f"{Path(func[0]).name}:{func[1]}:{func[2]} {stat[2]:.3f}s"
        for func, stat in rows[:count]
    )


def site_rewrite_texts() -> "tuple[object, list[str]]":
    """The constraint set and query texts of ``site-rewrite-cold``, from the
    benchmark's own workload module (without its 20 000-node web graph)."""
    sys.path.insert(0, str(_ROOT / "benchmarks" / "e2e"))
    from workloads.site_rewrite_cold import SiteRewriteCold

    workload = SiteRewriteCold(seed=0)
    workload.site = cs_department_site(*workload.SITE, seed=0)
    return workload.site.constraints, workload.texts()


def profile_rewrite(
    quick: bool, repeats: int
) -> "tuple[pstats.Stats, float, list[str], list[str]]":
    """Profile cold rewrites; the constraint set's prepared view is warm, as
    it is for every text after a session's first.

    Returns the stats, the profiled seconds, the improved/unimproved summary
    lines and the per-text work lines (timed in a separate, unprofiled pass)."""
    constraints, texts = site_rewrite_texts()
    if quick:
        texts = texts[: len(texts) // 6]  # the first faculty member's texts
    rewrite_query(texts[0], constraints)

    rows = []
    for text in texts:
        started = time.perf_counter()
        outcome = rewrite_query(text, constraints)
        rows.append((time.perf_counter() - started, outcome, text))
    summary = []
    for title, improved in (("improved", True), ("unimproved", False)):
        group = [(seconds, outcome) for seconds, outcome, _ in rows if outcome.improved is improved]
        if not group:
            continue
        count = len(group)
        summary.append(
            f"{title}: {count} texts, mean {sum(s for s, _ in group) / count * 1e3:.2f} ms, "
            f"generated {sum(o.generated for _, o in group) / count:.2f}, "
            f"proved {sum(o.proofs_attempted for _, o in group) / count:.2f}, "
            f"skipped by cost {sum(o.skipped_by_cost for _, o in group) / count:.2f}; "
            f"generate {sum(o.generate_ms for _, o in group) / count:.3f} ms, "
            f"prove {sum(o.prove_ms for _, o in group) / count:.3f} ms"
        )
    adoptions = Counter(outcome.proved_by for _, outcome, _ in rows if outcome.improved)
    summary.append(
        "adopted by: "
        + (", ".join(f"{method} {count}" for method, count in sorted(adoptions.items())) or "-")
    )
    per_text = [
        f"  {seconds * 1e3:7.2f} ms  {'improved ' if outcome.improved else 'unchanged'}"
        f" generated={outcome.generated} proofs_attempted={outcome.proofs_attempted}"
        f" skipped_by_cost={outcome.skipped_by_cost}"
        f" generate_ms={outcome.generate_ms:.3f} prove_ms={outcome.prove_ms:.3f}"
        f" proved_by={outcome.proved_by or '-'}  {text}"
        for seconds, outcome, text in rows
    ]

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(repeats):
        for text in texts:
            rewrite_query(text, constraints)
    profiler.disable()
    stats = pstats.Stats(profiler)
    return stats, stats.total_tt, summary, per_text


class WorkerProfiles:
    """cProfile on the threads a session starts (``threading.setprofile``).

    ``cProfile.Profile`` sees the thread that enabled it only, and a server
    runs its flushes on pool threads.  Installed before the server starts, :meth:`_hook` becomes every new thread's profile
    function; once :attr:`recording` is set, the thread's next call event
    hands the thread to a ``Profile`` of its own (``enable`` replaces the
    hook there).  Read the profiles after the server has closed its threads.
    """

    def __init__(self) -> None:
        self.recording = False
        self.profiles: "list[cProfile.Profile]" = []

    def _hook(self, frame, event, arg) -> None:
        if self.recording:
            profile = cProfile.Profile()
            try:
                profile.enable()
            except ValueError:
                # From Python 3.12 cProfile rides ``sys.monitoring``: one
                # profiler per process, and the caller's sees this thread.
                sys.setprofile(None)
                return
            self.profiles.append(profile)

    def __enter__(self) -> "WorkerProfiles":
        threading.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        threading.setprofile(None)


@contextmanager
def counting_kernel_runs():
    """Count every batched kernel run (the fixpoint loops the dispatcher
    picks from), on any thread; yields the list whose length is the count."""
    from repro.engine import executor

    calls: "list[None]" = []
    saved = dict(executor._KERNELS)

    def counted(fixpoint):
        def run(*args):
            calls.append(None)  # list.append is atomic across threads
            return fixpoint(*args)

        return run

    for name, fixpoint in saved.items():
        executor._KERNELS[name] = counted(fixpoint)
    try:
        yield calls
    finally:
        executor._KERNELS.update(saved)


# Unprofiled timings are the best of this many passes (per op, like the
# benchmark's per-op best): one pass on a shared box swings by a third.
TIMING_PASSES = 3


def time_templates(engine, ops: "list[str]") -> "dict[str, list[float]]":
    """Per CRPQ template (the text before ``WHERE``), each op's best seconds."""
    passes = []
    for _ in range(TIMING_PASSES):
        times = []
        for text in ops:
            started = time.perf_counter()
            engine.query_conjunctive(text)
            times.append(time.perf_counter() - started)
        passes.append(times)
    by_template: "dict[str, list[float]]" = {}
    for text, times in zip(ops, zip(*passes)):
        by_template.setdefault(text.split(" WHERE ")[0], []).append(min(times))
    return by_template


def kernel_runs(engine, ops: "list[str]") -> int:
    """Batched kernel runs one pass over ``ops`` makes."""
    with counting_kernel_runs() as runs:
        for text in ops:
            engine.query_conjunctive(text)
    return len(runs)


def record_atoms(engine, ops: "list[str]") -> "list[tuple[str, tuple]]":
    """Every atom evaluation the ops' join plans ask for, in order — the
    ``query_batch`` calls whose time the benchmark trace sums as
    ``conjunctive.atom_eval_ms``."""
    from repro.engine import PlanExecution

    atoms = []
    for text in ops:
        plan = engine.plan_conjunctive(engine.prepare_conjunctive(text))
        execution = PlanExecution(plan)
        while (request := execution.pending()) is not None:
            atoms.append((request.expression, request.sources))
            execution.feed(engine.query_batch(request.expression, request.sources))
    return atoms


def time_atoms(engine, atoms) -> float:
    """Seconds for one pass over ``atoms``, best of the timing passes."""
    passes = []
    for _ in range(TIMING_PASSES):
        started = time.perf_counter()
        for expression, sources in atoms:
            engine.query_batch(expression, sources)
        passes.append(time.perf_counter() - started)
    return min(passes)


def profile_crpq(
    quick: bool, repeats: int
) -> "tuple[pstats.Stats, float, list[str]]":
    """Profile the ``clustered-sharded-crpq`` op list beside the same ops
    on one monolithic ``Engine``.

    The data set, shard map, session options, op generator and CPU pinning
    are the benchmark workload's own; ``quick`` uses its smoke sizes.
    Unprofiled passes count kernel runs per op, time each template on the
    sharded session and on a monolithic engine over the same instance, and
    replay the ops' atoms on both (their time ratio is the benchmark
    trace's ``sharding.overhead_ratio``).  Returns the stats, the profiled
    seconds and those work lines."""
    sys.path.insert(0, str(_ROOT / "benchmarks" / "e2e"))
    from workloads.clustered_sharded_crpq import TEMPLATES, ClusteredShardedCrpq

    pinnable = hasattr(os, "sched_setaffinity")
    if ClusteredShardedCrpq.pin_one_cpu and pinnable:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = ClusteredShardedCrpq(seed=0, smoke=quick)
    workload.generate(None)
    ops = workload.make_ops(12 if quick else workload.lap_ops)
    workload.open_cold(None)
    engine = workload.cold
    for text in ops:  # warm the compile caches and the lowerings
        engine.query_conjunctive(text)
    atoms = record_atoms(engine, ops)
    sharded_runs = kernel_runs(engine, ops)
    sharded_templates = time_templates(engine, ops)
    sharded_atom_s = time_atoms(engine, atoms)
    q_error = engine.telemetry()["crpq_q_error"]
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(repeats):
        for text in ops:
            engine.query_conjunctive(text)
    profiler.disable()
    monolithic = Engine.open(workload.instance)
    for text in ops:
        monolithic.query_conjunctive(text)
    mono_runs = kernel_runs(monolithic, ops)
    mono_templates = time_templates(monolithic, ops)
    mono_atom_s = time_atoms(monolithic, atoms)
    cpus = sorted(os.sched_getaffinity(0)) if pinnable else "n/a"
    work = [
        f"{len(ops)} ops over {len(TEMPLATES)} templates, {len(atoms)} atoms; "
        f"CPUs {cpus}; join-step q-error "
        f"p50 {q_error['p50']:.2f} p95 {q_error['p95']:.2f} "
        f"({q_error['count']} steps)",
        f"kernel runs per op: sharded {sharded_runs / len(ops):.2f}, "
        f"monolithic {mono_runs / len(ops):.2f}",
        f"atom time (unprofiled): sharded {sharded_atom_s / len(ops) * 1e3:.3f} ms/op, "
        f"monolithic {mono_atom_s / len(ops) * 1e3:.3f} ms/op, "
        f"overhead ratio {sharded_atom_s / mono_atom_s:.2f}",
        "per template (unprofiled): sharded ms | monolithic ms",
        *(
            f"  {mean_ms(times):7.2f} | {mean_ms(mono_templates[head]):7.2f}"
            f"  x {len(times):<3} {head}"
            for head, times in sharded_templates.items()
        ),
    ]
    stats = pstats.Stats(profiler)
    return stats, stats.total_tt, work


def calls_of(stats: "pstats.Stats | None", function) -> int:
    """How many times ``stats`` saw ``function`` (a Python function) called."""
    if stats is None:
        return 0
    code = function.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats.stats.get(key, (0, 0))[1]


def profile_serve(quick: bool) -> "tuple[pstats.Stats, float, list[str]]":
    """Profile ``serve_stream`` over the ``web-served-point`` request lines.

    The data set, op mix, server options, in-flight count and CPU pinning
    are the benchmark workload's own; ``quick`` uses its smoke sizes.  The
    session is fresh, so each distinct text is admitted cold once: what a
    served line costs beyond that shows in the per-1 000-line counts.
    Returns the merged stats, the profiled seconds and the work lines."""
    from repro.engine import request
    from repro.regex import parser

    sys.path.insert(0, str(_ROOT / "benchmarks" / "e2e"))
    from workloads.web_served_point import IN_FLIGHT, WebServedPoint

    pinnable = hasattr(os, "sched_setaffinity")
    if WebServedPoint.pin_one_cpu and pinnable:
        # Before the server starts: its pool thread inherits the set.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WebServedPoint(seed=0, smoke=quick)
    workload.generate(None)
    ops = workload.make_ops(2 * (workload.smoke_ops if quick else workload.lap_ops))

    def serve_fresh(profiler=None, workers=None):
        """Serve ``ops`` once on a fresh session (this thread runs the
        loop); returns the server and the loop thread's CPU seconds."""
        engine = Engine.open(workload.instance)
        loop = workload.loop = asyncio.new_event_loop()
        try:
            server = workload._server(engine)
            if workers is not None:
                workers.recording = True
            cpu = time.thread_time()
            if profiler is not None:
                profiler.enable()
            loop.run_until_complete(workload._serve(server, ops))
            if profiler is not None:
                profiler.disable()
            cpu = time.thread_time() - cpu
            loop.run_until_complete(server.close())  # joins the pool thread
        finally:
            loop.close()
        return server, cpu

    _, plain_cpu = serve_fresh()
    with WorkerProfiles() as workers:
        profiler = cProfile.Profile()
        server, profiled_cpu = serve_fresh(profiler, workers)
    loop_stats = pstats.Stats(profiler)
    pool_stats = pstats.Stats(*workers.profiles) if workers.profiles else None
    # The loop's idle time is its wait in the selector.
    idle = sum(
        stat[2] for (filename, _line, name), stat in loop_stats.stats.items()
        if filename == "~" and "select" in name
    )
    per_kline = 1e3 / len(ops)
    handle_run = asyncio.events.Handle._run
    # Both threads make Handles: the pool's call_soon_threadsafe does too.
    handles = sum(
        calls_of(stats, asyncio.events.Handle.__init__) for stats in (loop_stats, pool_stats)
    )
    cpus = sorted(os.sched_getaffinity(0)) if pinnable else "n/a"
    work = [
        f"{len(ops)} lines over {len({op[2] for op in ops})} distinct texts, "
        f"{IN_FLIGHT} in flight; CPUs {cpus}; threads profiled: loop + "
        f"{len(workers.profiles)} flush-pool",
        f"loop thread CPU (time.thread_time): {plain_cpu / len(ops) * 1e6:.1f} "
        f"us/line unprofiled, {profiled_cpu / len(ops) * 1e6:.1f} us/line profiled",
        f"loop wall outside the selector (profiled; counts GIL waits behind "
        f"the pool and the profiler's own cost): {loop_stats.total_tt - idle:.3f} s "
        f"({(loop_stats.total_tt - idle) / len(ops) * 1e6:.1f} us/line), "
        f"selector wait {idle:.3f} s",
        "per 1000 lines: "
        f"regex.parse {calls_of(loop_stats, parser.parse) * per_kline:.2f} loop / "
        f"{calls_of(pool_stats, parser.parse) * per_kline:.2f} pool, "
        f"normalize {calls_of(loop_stats, request.normalize) * per_kline:.1f}, "
        f"loop callbacks {calls_of(loop_stats, handle_run) * per_kline:.0f}, "
        f"Handles {handles * per_kline:.0f}, "
        f"create_task {calls_of(loop_stats, asyncio.BaseEventLoop.create_task) * per_kline:.1f}, "
        f"flushes {server.stats.batches * per_kline:.1f}",
        f"served {server.stats.served} of {server.stats.submitted} submitted, "
        f"{server.stats.failed} failed",
    ]
    merged = pstats.Stats(profiler, *workers.profiles)
    return merged, merged.total_tt, work


def profile_edit(quick: bool) -> "tuple[pstats.Stats, float, list[str]]":
    """Profile ``web-edit-read``'s transactions on a fresh engine.

    The data set and op list are the benchmark workload's own; ``quick``
    uses its smoke graph.  After a warm-up lap, two counted laps (each
    closed by the workload's drain-and-compact restore) give the product
    lowerings per 1 000 transactions, a decomposed lap times the lowering,
    the fixpoint and answer materialisation apart, and a last lap runs
    under the profiler.  Returns the stats, the profiled seconds and the
    work lines."""
    sys.path.insert(0, str(_ROOT / "benchmarks" / "e2e"))
    from workloads.web_edit_read import WebEditRead

    workload = WebEditRead(seed=0, smoke=quick)
    workload.generate(None)
    engine = workload.engine = Engine.open(workload.instance)
    ops = workload.make_ops(workload.lap_ops)

    def lap() -> None:
        for op in ops:
            workload._transaction(op)
        workload.restore()

    lap()  # warm-up: compile cache, first lowering
    before = engine.graph.lowering_counts()
    for _ in range(2):
        lap()
    after = engine.graph.lowering_counts()
    per_kop = 1e3 / (2 * len(ops))
    lowerings = ", ".join(
        f"{how} {(after[how] - before[how]) * per_kop:.1f}" for how in after
    )
    lowering_s = fixpoint_s = materialize_s = 0.0
    for adds, removes, sources in ops:
        workload._edit(adds, removes)
        compiled = engine.compiled(workload.EXPRESSION)
        graph = engine.graph
        node_ids = [graph.node_id(source) for source in sources]
        started = time.perf_counter()
        graph.numpy_product_csr(compiled.moves)
        lowered = time.perf_counter()
        run = run_batch(graph, compiled, node_ids, backend=engine.backend)
        ran = time.perf_counter()
        for answers in run.answers:  # the session's answer materialisation
            graph.oids_of(answers)
        lowering_s += lowered - started
        fixpoint_s += ran - lowered
        materialize_s += time.perf_counter() - ran
    workload.restore()
    profiler = cProfile.Profile()
    profiler.enable()
    lap()
    profiler.disable()
    per_op = 1e3 / len(ops)
    work = [
        f"{len(ops)} transactions per lap ({workload.EDITS} adds, the adds of "
        f"{workload.WINDOW} transactions back removed, a {workload.WIDTH}-source "
        f"{workload.EXPRESSION!r} read) over {engine.graph.num_nodes} nodes",
        f"per 1000 transactions, 2 laps after warm-up: lowerings {lowerings}",
        f"ms per transaction (unprofiled): lowering {lowering_s * per_op:.3f}, "
        f"fixpoint {fixpoint_s * per_op:.3f}, materialisation "
        f"{materialize_s * per_op:.3f}",
    ]
    stats = pstats.Stats(profiler)
    return stats, stats.total_tt, work


def mean_ms(seconds: "list[float]") -> float:
    return sum(seconds) / len(seconds) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--target",
        choices=("kernels", "rewrite", "crpq", "serve", "edit"),
        default="kernels",
        help="what to profile: the batch kernels, the query rewriter, "
        "sharded conjunctive queries, the served wire path, or "
        "edit-then-read transactions",
    )
    parser.add_argument(
        "--backend",
        action="append",
        help="backend(s) to profile (default: every available one)",
    )
    parser.add_argument("--nodes", type=int, default=400)
    parser.add_argument("--edges", type=int, default=1600)
    parser.add_argument("--sources", type=int, default=128)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--top", type=int, default=25, metavar="N")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--out", default="PROFILE_report.txt", help="report path (gitignored)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, few repeats: the check.sh harness-health step",
    )
    args = parser.parse_args()
    if args.quick:
        args.nodes, args.edges, args.sources, args.repeats = 120, 480, 48, 3

    sections: "list[str]" = []
    if args.target == "rewrite":
        stats, total, summary, per_text = profile_rewrite(args.quick, args.repeats)
        work = [*summary, "per text (unprofiled):", *per_text]
        sections.append(render_report("target: rewrite", stats, total, args.top, work))
        print(f"rewrite: {total:.4f}s profiled; hottest: {hottest_frames(stats)}")
        print(*summary, sep="\n")
    elif args.target == "crpq":
        stats, total, work = profile_crpq(args.quick, 1 if args.quick else 3)
        sections.append(render_report("target: crpq", stats, total, args.top, work))
        print(f"crpq: {total:.4f}s profiled; hottest: {hottest_frames(stats)}")
        print(*work, sep="\n")
    elif args.target == "serve":
        stats, total, work = profile_serve(args.quick)
        sections.append(render_report("target: serve", stats, total, args.top, work))
        print(f"serve: {total:.4f}s profiled; hottest: {hottest_frames(stats)}")
        print(*work, sep="\n")
    elif args.target == "edit":
        stats, total, work = profile_edit(args.quick)
        sections.append(render_report("target: edit", stats, total, args.top, work))
        print(f"edit: {total:.4f}s profiled; hottest: {hottest_frames(stats)}")
        print(*work, sep="\n")
    else:
        backends = tuple(args.backend) if args.backend else available_backends()
        instance = build_instance(args.nodes, args.edges, args.seed)
        sources = [f"n{index}" for index in range(min(args.sources, args.nodes))]
        for backend in backends:
            stats, total, work = profile_backend(
                backend, instance, sources, args.repeats, args.top
            )
            sections.append(
                render_report(
                    f"backend: {backend}", stats, total, args.top,
                    ["kernel work per batch:", *work],
                )
            )
            print(f"{backend}: {total:.4f}s profiled; hottest: {hottest_frames(stats)}")
            print(*work, sep="\n")

    report = Path(args.out)
    report.write_text("\n".join(sections), encoding="utf-8")
    print(f"wrote {report} ({len(sections)} section(s), top {args.top})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
