"""What every workload shares: the set-up steps over one monolithic
``Engine``, seeded streams, and the decomposed read used by the traces."""

from __future__ import annotations

import random
from pathlib import Path

from repro.engine import Engine, resolve_backend, run_batch
from repro.graph import web_like_graph
from repro.query.evaluation import evaluate_baseline

from harness import directory_bytes

WEB_LABELS = ("a", "b", "c", "d")

#: The datasets are fixed (like a benchmark's data files): graph shape moves
#: the kernel's cost by +-8 % from one generator seed to the next, which would
#: drown the bounds.  ``--seed`` draws the op stream over the fixed dataset.
DATASET_SEED = 1997

#: Marks an op whose sampled answers disagreed with the baseline evaluator;
#: it equals no digest, so the op counts as failed.
ORACLE_MISMATCH = "oracle-mismatch"


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Workload:
    """One benchmark workload.  Subclasses fill in the inputs and the op.

    The set-up steps (``generate`` .. ``start``) are called in order by
    ``harness.set_up`` on a fresh object; the serving session is the one
    warm-opened from the snapshot.  ``--seed`` reaches the op generators
    only (``rng``): the program under test receives just the generated
    inputs.
    """

    name = ""
    #: Ops of one lap: at least 100, so that p90 has ten samples beyond it,
    #: and about 3 s of work, so that four or more laps fit in a run.
    lap_ops = 100
    smoke_ops = 4
    #: Keep every thread of the run on one CPU: set where a workload has two
    #: threads and was measured to need it (see ``WebServedPoint``).
    pin_one_cpu = False
    #: Snapshot file (or directory, for the sharded engine) under the temp dir.
    SNAPSHOT = "engine.snap"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.snapshot_bytes = 0

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}:{stream}:{self.seed}")

    # -- set-up steps ---------------------------------------------------------
    def generate(self, tmpdir: Path) -> None:
        raise NotImplementedError

    def open_cold(self, tmpdir: Path) -> None:
        self.cold = Engine.open(self.instance)

    def save(self, tmpdir: Path) -> None:
        self.cold.save(tmpdir / self.SNAPSHOT)
        self.snapshot_bytes = directory_bytes(tmpdir)

    def open_warm(self, tmpdir: Path) -> None:
        self.engine = Engine.open(tmpdir / self.SNAPSHOT, instance=self.instance)
        del self.cold

    def start(self, tmpdir: Path) -> None:
        """Server start, for the workloads that have one."""

    def stop(self) -> None:
        """Release threads and loops; called once per set-up object."""

    # -- inputs ---------------------------------------------------------------
    def backend(self) -> str:
        return resolve_backend(self.engine.backend)

    def edge_count(self) -> int:
        return self.instance.edge_count()

    def make_ops(self, count: int) -> list:
        raise NotImplementedError

    # -- measurement ----------------------------------------------------------
    def oracle(self, ops: list) -> "dict[int, object]":
        """``{op index: expected digest}`` for a seeded sample of ops."""
        raise NotImplementedError

    def lap(self, ops: list):
        raise NotImplementedError

    def restore(self) -> None:
        """Lap boundary, untimed: put back whatever a lap changed."""

    def counts(self) -> "dict[str, int]":
        """Cumulative work counters that must repeat exactly lap after lap."""
        raise NotImplementedError

    def trace(self, ops: list, recorder, facade: list) -> dict:
        """Decomposed replay of one lap, each op under an ``"op"`` span with
        its layer calls beneath; returns the per-layer metrics plus
        ``_failed`` (replayed ops whose digest differs from the façade's)."""
        raise NotImplementedError


def hit_share(counts: dict) -> float:
    """Share of DFA-cache lookups that hit, from a lap's count deltas."""
    lookups = counts["compile_hits"] + counts["compile_misses"]
    return counts["compile_hits"] / lookups if lookups else 0.0


def exact_mix(rng, choices, weights, count: int) -> list:
    """``count`` draws from ``choices`` in exactly the ``weights`` proportions,
    shuffled: the mix is the same for every seed, only the order differs (a
    sampled mix would move a lap's mean cost by a few percent per seed)."""
    total = sum(weights)
    draws = []
    for choice, weight in zip(choices, weights):
        draws.extend([choice] * (count * weight // total))
    draws.extend(choices[i % len(choices)] for i in range(count - len(draws)))
    rng.shuffle(draws)
    return draws


def web_graph(nodes: int):
    instance, _root = web_like_graph(nodes, WEB_LABELS, seed=DATASET_SEED)
    return instance, [f"p{i}" for i in range(nodes)]


def baseline_agrees(instance, expression, sources, results) -> bool:
    """Do the engine's ``results`` equal the reference evaluator's answers?"""
    return all(
        evaluate_baseline(expression, source, instance).answers == results[source]
        for source in sources
    )


def decomposed_read(engine: Engine, recorder, expression: str, sources, op: int):
    """``Engine.query_batch`` taken apart into its public layer calls.

    compile (cache lookup or lowering) -> source lowering -> executor ->
    answer materialisation; returns ``(results, run)``.
    """
    with recorder.span("compiled_query.compile", op):
        compiled = engine.compiled(expression)
    graph = engine.graph
    with recorder.span("session.lower_sources", op):
        node_ids = [graph.node_id(source) for source in sources]
    with recorder.span("executor.run_batch", op):
        run = run_batch(graph, compiled, node_ids, backend=engine.backend)
    with recorder.span("session.materialize", op):
        results = {
            source: graph.oids_of(answers)
            for source, answers in zip(sources, run.answers)
        }
    return results, run
