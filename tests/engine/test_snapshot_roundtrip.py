"""Property test: snapshot -> load is lossless, before and after edits.

Hypothesis generates random instances, a pre-save edit script (driven
through the engine so tombstones and overflow edges are live at save time),
a query, and a post-load edit script.  Every example must satisfy: the
loaded engine answers exactly like the baseline evaluator on the live
instance — across every available executor backend — both immediately
after the load and after further incremental
``add_edge``/``remove_edge`` mutations of the restored structures.
"""

import os
import tempfile

from hypothesis import given, settings

from _strategies import edit_scripts, regexes, small_instances
from repro.engine import Engine, available_backends
from repro.query import RegularPathQuery, evaluate_baseline


def apply_script(engine, script):
    """Drive an edit script through the engine (no-op where invalid)."""
    for kind, source, label, destination in script:
        if kind == "add":
            engine.add_edge(source, label, destination)
        elif engine.instance.has_edge(source, label, destination):
            engine.remove_edge(source, label, destination)


def assert_engine_matches_baseline(engine, rpq, context):
    instance = engine.instance
    sources = sorted(instance.objects, key=repr)
    expected = {
        source: evaluate_baseline(rpq, source, instance).answers
        for source in sources
    }
    for backend in available_backends():
        engine.backend = backend
        for source in sources:
            assert engine.query(rpq, source).answers == expected[source], (
                context,
                backend,
                source,
            )
        batched = engine.query_batch(rpq, sources)
        for source in sources:
            assert batched[source] == expected[source], (context, backend, source)


@given(
    small_instances(max_nodes=5, max_edges=8),
    edit_scripts(max_ops=6),
    edit_scripts(max_ops=6),
    regexes(max_leaves=5),
)
@settings(max_examples=60, deadline=None)
def test_snapshot_roundtrip_is_lossless(graph_and_source, before, after, expression):
    instance, _ = graph_and_source
    rpq = RegularPathQuery.of(expression)
    engine = Engine.open(instance)
    # Pre-save edits go through the engine, leaving live tombstones and
    # overflow edges in the compiled graph for the snapshot to capture.
    apply_script(engine, before)
    engine.query(rpq, 0)  # so the snapshot ships a servable table for the query
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "snap")
        engine.save(path)

        loaded = Engine.open(path, instance=instance)
        assert loaded.stats.graph_builds == 0
        assert set(loaded.graph.iter_edges()) == set(engine.graph.iter_edges())
        assert_engine_matches_baseline(loaded, rpq, "fresh-load")
        assert loaded.compiler.misses == 0

        # Standalone load: the reconstructed instance must answer like
        # the live one did at save time.
        alone = Engine.open(path)
        assert alone.instance == instance
        assert_engine_matches_baseline(alone, rpq, "standalone")

        # Post-load incremental edits on the restored structures.
        apply_script(loaded, after)
        assert loaded.stats.graph_builds == 0
        assert_engine_matches_baseline(loaded, rpq, "post-load-edits")
