"""Runtime lock-order witness: recording, inversions, static consistency.

The witness (``repro.engine.telemetry.LockWitness``) is the dynamic half of
the ``LockOrder`` rule: under ``REPRO_LOCK_WITNESS=1`` every engine lock
reports its acquisitions, and the observed ``held -> acquired`` edges must
stay consistent with the statically derived graph
(``repro.analysis.engine_static_edges``).
"""

import threading

import pytest

from repro.analysis import engine_static_edges
from repro.engine.telemetry import (
    LockOrderError,
    LockWitness,
    lock_witness,
    set_witness_enabled,
    witness_enabled,
    witnessed_lock,
)


@pytest.fixture
def witness_mode():
    """Enable witness mode for one test, restoring the prior state after."""
    previous = set_witness_enabled(True)
    recorder = lock_witness()
    recorder.reset()
    try:
        yield recorder
    finally:
        recorder.reset()
        set_witness_enabled(previous)


class TestLockWitness:
    def test_records_nested_acquisition_edges(self):
        witness = LockWitness()
        witness.note_acquire("A")
        witness.note_acquire("B")
        witness.note_release("B")
        witness.note_release("A")
        assert witness.edges() == {("A", "B")}
        witness.assert_consistent()  # one edge: trivially acyclic

    def test_reentrant_acquire_records_nothing(self):
        witness = LockWitness()
        witness.note_acquire("A")
        witness.note_acquire("A")  # RLock re-entry
        witness.note_release("A")
        witness.note_release("A")
        assert witness.edges() == set()

    def test_inversion_detected_immediately(self):
        witness = LockWitness()
        witness.note_acquire("A")
        witness.note_acquire("B")
        witness.note_release("B")
        witness.note_release("A")
        witness.note_acquire("B")
        witness.note_acquire("A")  # inverted on the same thread, later
        assert witness.inversions()
        with pytest.raises(LockOrderError, match="acquired while"):
            witness.assert_consistent()

    def test_edges_per_thread_stacks(self):
        # Two threads each holding one lock never produce an edge; edges
        # need *nesting* within a single thread.
        witness = LockWitness()

        def hold(name, started, release):
            witness.note_acquire(name)
            started.set()
            release.wait(timeout=10)
            witness.note_release(name)

        started_a, started_b = threading.Event(), threading.Event()
        release = threading.Event()
        threads = [
            threading.Thread(target=hold, args=("A", started_a, release)),
            threading.Thread(target=hold, args=("B", started_b, release)),
        ]
        for thread in threads:
            thread.start()
        assert started_a.wait(timeout=10) and started_b.wait(timeout=10)
        release.set()
        for thread in threads:
            thread.join()
        assert witness.edges() == set()

    def test_observed_order_contradicting_static_graph_fails(self):
        # The static analyzer proved A -> B somewhere in the tree; a run
        # that acquires B -> A is a deadlock waiting for the right timing,
        # even though neither graph alone has a cycle.
        witness = LockWitness()
        witness.note_acquire("B")
        witness.note_acquire("A")
        witness.note_release("A")
        witness.note_release("B")
        witness.assert_consistent()  # fine in isolation
        with pytest.raises(LockOrderError, match="cycle"):
            witness.assert_consistent(static_edges={("A", "B")})

    def test_consistent_merge_passes(self):
        witness = LockWitness()
        witness.note_acquire("A")
        witness.note_acquire("B")
        witness.note_release("B")
        witness.note_release("A")
        witness.assert_consistent(static_edges={("B", "C"), ("A", "C")})

    def test_reset_clears_recordings(self):
        witness = LockWitness()
        witness.note_acquire("A")
        witness.note_acquire("B")
        witness.reset()
        assert witness.edges() == set()
        assert witness.inversions() == []


class TestWitnessedLock:
    def test_plain_lock_when_disabled(self):
        if witness_enabled():
            pytest.skip("suite running under REPRO_LOCK_WITNESS")
        lock = witnessed_lock("Plain._lock")
        assert type(lock) is type(threading.Lock())

    def test_reports_acquisitions_when_enabled(self, witness_mode):
        outer = witnessed_lock("Outer._lock")
        inner = witnessed_lock("Inner._lock", threading.RLock)
        with outer:
            with inner:
                with inner:  # re-entrant: no self-edge
                    pass
        assert witness_mode.edges() == {("Outer._lock", "Inner._lock")}

    def test_set_witness_enabled_returns_previous(self):
        previous = set_witness_enabled(witness_enabled())
        assert previous == witness_enabled()


class TestEngineWitnessIntegration:
    def test_sharded_evaluation_order_matches_static_graph(self, witness_mode):
        # Locks must be created while witness mode is on, so the engine is
        # built inside the fixture's window.  A sharded edit exercises the
        # deepest real nesting: ShardedEngine._lock ->
        # ShardedEngine._run_lock -> CompiledGraph._np_lock.
        from repro.engine import ShardedEngine
        from repro.graph import web_like_graph

        instance, source = web_like_graph(24, ["ref", "link"], seed=11)
        engine = ShardedEngine(instance, shards=2)
        engine.query("ref*", source)
        engine.add_edge(source, "extra", "fresh")
        engine.query_batch("extra", [source])
        engine.compact_now()
        observed = witness_mode.edges()
        assert ("ShardedEngine._lock", "ShardedEngine._run_lock") in observed
        assert ("ShardedEngine._run_lock", "CompiledGraph._np_lock") in observed
        assert observed, "witnessed evaluation recorded no lock nesting"
        witness_mode.assert_consistent(engine_static_edges())
