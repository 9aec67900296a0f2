"""Unit tests for compiled-graph snapshots (persist / warm-start)."""

import json
import os
import struct
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, ShardedEngine
from repro.engine import snapshot
from repro.engine.sharding import MANIFEST_NAME
from repro.engine.snapshot import (
    DIGEST_SIZE,
    MAGIC,
    SnapshotStamp,
    instance_from_graph,
    load_payload,
)
from repro.exceptions import ReproError
from repro.graph import Instance, figure2_graph, random_graph, web_like_graph
from repro.query import evaluate_baseline


@pytest.fixture
def warm_engine():
    instance, source = figure2_graph()
    engine = Engine.open(instance)
    engine.query("a b*", source)
    engine.query("(a + b)*", source)
    return engine, instance, source


class TestRoundTrip:
    def test_graph_and_cache_round_trip(self, warm_engine, tmp_path):
        engine, instance, source = warm_engine
        path = tmp_path / "snap"
        engine.save(path)
        loaded = Engine.open(path, instance=instance)
        # Warm start: no rebuild, no recompilation.
        assert loaded.stats.graph_builds == 0
        assert loaded.stats.snapshot_restores == 1
        assert loaded.compiler.misses == 0
        assert len(loaded.compiler) == 2
        graph, restored = engine.graph, loaded.graph
        assert restored.nodes.values() == graph.nodes.values()
        assert restored.labels.values() == graph.labels.values()
        assert set(restored.iter_edges()) == set(graph.iter_edges())
        for query in ("a b*", "(a + b)*", "b"):
            assert (
                loaded.query(query, source).answers
                == engine.query(query, source).answers
            )
        assert loaded.compiler.hits >= 2  # the two persisted tables served

    def test_tombstones_and_overflow_survive(self, warm_engine, tmp_path):
        engine, instance, source = warm_engine
        engine.add_edge("o1", "zz", "fresh")  # overflow edge, new label + node
        engine.remove_edge("o2", "b", "o3")  # tombstoned CSR slot
        path = tmp_path / "snap"
        engine.save(path)
        loaded = Engine.open(path, instance=instance)
        assert loaded.graph.overflow_edge_count() == 1
        assert loaded.graph.tombstone_count() == 1
        assert loaded.query("a b*", source).answers == {"o2"}
        assert loaded.query("zz", "o1").answers == {"fresh"}
        # Incremental mutation keeps working on the restored structures.
        loaded.add_edge("o2", "b", "o3")  # revives the tombstoned slot
        assert loaded.graph.tombstone_count() == 0
        assert loaded.query("a b*", source).answers == {"o2", "o3"}
        assert loaded.stats.graph_builds == 0

    def test_standalone_load_reconstructs_instance(self, warm_engine, tmp_path):
        engine, instance, source = warm_engine
        path = tmp_path / "snap"
        engine.save(path)
        alone = Engine.open(path)
        assert alone.instance is not instance
        assert alone.instance == instance
        assert alone.instance.content_fingerprint() == instance.content_fingerprint()
        assert (
            alone.query("a b*", source).answers
            == evaluate_baseline("a b*", source, instance).answers
        )

    def test_isolated_objects_survive(self, tmp_path):
        instance, source = figure2_graph()
        instance.add_object("hermit")
        engine = Engine.open(instance)
        path = tmp_path / "snap"
        engine.save(path)
        alone = Engine.open(path)
        assert "hermit" in alone.instance.objects
        assert alone.query("a*", "hermit").answers == {"hermit"}

    def test_oids_with_trailing_nul_round_trip(self, tmp_path):
        instance = Instance([("a\x00", "r", "b"), ("b", "r", "plain")])
        engine = Engine.open(instance)
        path = tmp_path / "snap"
        engine.save(path)
        loaded = Engine.open(path, instance=instance)
        assert loaded.stats.graph_builds == 0
        assert loaded.query("r", "a\x00").answers == {"b"}
        assert Engine.open(path).instance == instance

    def test_non_string_oids_round_trip(self, tmp_path):
        instance, _ = random_graph(12, 2, ["a", "b"], seed=7)  # integer oids
        engine = Engine.open(instance)
        engine.query("a b*", 0)
        path = tmp_path / "snap"
        engine.save(path)
        loaded = Engine.open(path, instance=instance)
        assert loaded.stats.graph_builds == 0
        for oid in sorted(instance.objects, key=repr)[:5]:
            assert (
                loaded.query("a b*", oid).answers
                == evaluate_baseline("a b*", oid, instance).answers
            )

    def test_save_refreshes_stale_engine_first(self, warm_engine, tmp_path):
        engine, instance, source = warm_engine
        instance.add_edge(source, "c", "o3")  # out-of-band mutation
        path = tmp_path / "snap"
        engine.save(path)  # must refresh before stamping
        loaded = Engine.open(path, instance=instance)
        assert loaded.stats.graph_builds == 0
        assert loaded.query("c", source).answers == {"o3"}

    def test_stamp_mismatch_falls_back_to_rebuild(self, warm_engine, tmp_path):
        engine, instance, source = warm_engine
        path = tmp_path / "snap"
        engine.save(path)
        changed, _ = figure2_graph()
        changed.add_edge("o1", "qq", "o2")
        fallback = Engine.open(path, instance=changed)
        assert fallback.stats.graph_builds == 1
        assert fallback.stats.snapshot_restores == 0
        assert fallback.query("qq", "o1").answers == {"o2"}
        assert (
            fallback.query("a b*", source).answers
            == evaluate_baseline("a b*", source, changed).answers
        )

    def test_fallback_reseeds_cache_when_label_order_matches(
        self, warm_engine, tmp_path
    ):
        engine, instance, source = warm_engine
        path = tmp_path / "snap"
        engine.save(path)
        # Same label universe, one extra edge on existing labels: the rebuilt
        # interner assigns the same label ids, so persisted tables stay valid.
        changed, _ = figure2_graph()
        changed.add_edge("o3", "a", "o1")
        fallback = Engine.open(path, instance=changed)
        assert fallback.stats.graph_builds == 1
        assert fallback.compiler.misses == 0
        assert (
            fallback.query("a b*", source).answers
            == evaluate_baseline("a b*", source, changed).answers
        )
        assert fallback.compiler.hits == 1

    def test_loaded_engine_keeps_serving_after_post_load_edits(
        self, warm_engine, tmp_path
    ):
        engine, instance, source = warm_engine
        path = tmp_path / "snap"
        engine.save(path)
        loaded = Engine.open(path, instance=instance)
        loaded.add_edge("o3", "b", "o1")
        loaded.remove_edge("o1", "a", "o2")
        assert loaded.stats.graph_builds == 0
        for query in ("a b*", "(a + b)*"):
            assert (
                loaded.query(query, source).answers
                == evaluate_baseline(query, source, instance).answers
            )

    def test_payload_stamp_fields(self, warm_engine, tmp_path):
        engine, instance, _ = warm_engine
        path = tmp_path / "snap"
        engine.save(path)
        payload = load_payload(path)
        assert payload.stamp == SnapshotStamp(
            instance_version=instance.version,
            edge_version=instance.edge_version,
            fingerprint=instance.content_fingerprint(),
        )
        assert {key for key, _ in payload.cache} == {"a b*", "(a + b)*"}


class TestBadInputs:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Engine.open(tmp_path / "nope.snap")

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"definitely not a snapshot")
        with pytest.raises(ReproError, match="not a repro engine snapshot"):
            load_payload(path)

    def test_unsupported_format_version(self, tmp_path):
        instance, _ = figure2_graph()
        engine = Engine.open(instance)
        path = tmp_path / "snap"
        engine.save(path)
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC)] = 99  # bump the little-endian format version field
        path.write_bytes(bytes(blob))
        with pytest.raises(ReproError, match="unsupported snapshot format version 99"):
            load_payload(path)

    @pytest.mark.parametrize(
        "blob",
        [
            pytest.param(MAGIC + struct.pack("<Iqq", 1, 7, 7) + b"\0" * 64, id="version-1"),
            pytest.param(b"PK\x03\x04" + b"\0" * 64, id="npz"),
        ],
    )
    def test_files_of_older_builds_are_refused_with_advice(self, tmp_path, blob):
        path = tmp_path / "old.snap"
        path.write_bytes(blob)
        with pytest.raises(ReproError, match="re-save"):
            Engine.open(path)

    @pytest.mark.parametrize("keep", [10, 60, 200])
    def test_truncated_snapshot_raises_repro_error(self, tmp_path, keep):
        instance, source = figure2_graph()
        engine = Engine.open(instance)
        engine.query("a b*", source)
        path = tmp_path / "snap"
        engine.save(path)
        blob = path.read_bytes()
        assert len(blob) > keep
        path.write_bytes(blob[:keep])
        with pytest.raises(ReproError, match="snapshot"):
            load_payload(path)

    def test_instance_kwarg_rejected_for_instance_source(self):
        instance, _ = figure2_graph()
        with pytest.raises(ReproError, match="instance="):
            Engine.open(instance, instance=instance)


class TestPartsIsolation:
    def test_from_parts_graph_does_not_alias_source_overflow(self):
        from repro.engine import CompiledGraph

        instance, _ = figure2_graph()
        first = CompiledGraph.from_instance(instance)
        first.add_edge("o1", "a", "o3")  # lands in overflow
        second = CompiledGraph.from_parts(**first.to_parts())
        second.add_edge("o1", "a", "o1")  # must not leak into `first`
        assert first.overflow_edge_count() == 1
        assert set(first.iter_edges()) != set(second.iter_edges())
        lid = first.label_id("a")
        assert first.node_id("o1") not in set(
            first.successors(first.node_id("o1"), lid)
        )


class TestInstanceFromGraph:
    def test_equals_original(self):
        instance, _ = random_graph(20, 3, ["a", "b", "c"], seed=3)
        instance.add_object("isolated")
        engine = Engine.open(instance)
        rebuilt = instance_from_graph(engine.graph)
        assert rebuilt == instance


class TestFormat:
    def test_same_bytes_with_and_without_numpy(self, tmp_path, monkeypatch):
        instance, source = web_like_graph(80, ["a", "b", "c"], seed=5)

        def saved(name):
            engine = Engine.open(instance.copy())
            engine.query_batch("a (b + c)*", [source])
            engine.save(tmp_path / name)
            return (tmp_path / name).read_bytes()

        monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)
        with_numpy = saved("numpy.snap")
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        assert saved("stdlib.snap") == with_numpy
        # Each arm opens the file the other wrote.
        assert Engine.open(tmp_path / "numpy.snap", instance=instance).stats.graph_builds == 0
        monkeypatch.delenv("REPRO_DISABLE_NUMPY")
        assert Engine.open(tmp_path / "stdlib.snap", instance=instance).stats.graph_builds == 0

    @pytest.mark.parametrize("limit, itemsize", [(2**32, 4), (1, 8)])
    def test_both_integer_widths_round_trip(
        self, warm_engine, tmp_path, monkeypatch, limit, itemsize
    ):
        engine, instance, source = warm_engine
        engine.add_edge("o1", "zz", "fresh")  # overflow
        engine.remove_edge("o2", "b", "o3")  # tombstone
        monkeypatch.setattr(snapshot, "_NARROW_LIMIT", limit)
        path = tmp_path / "snap"
        engine.save(path)
        blob = path.read_bytes()
        assert f'"itemsize": {itemsize}'.encode() in blob
        loaded = Engine.open(path, instance=instance)
        assert loaded.stats.graph_builds == 0 and loaded.compiler.misses == 0
        assert set(loaded.graph.iter_edges()) == set(engine.graph.iter_edges())
        assert loaded.graph.tombstone_count() == 1
        for query in ("a b*", "(a + b)*", "zz"):
            assert (
                loaded.query(query, source).answers
                == evaluate_baseline(query, source, instance).answers
            )

    def test_save_replaces_the_file_and_leaves_no_staging_file(self, warm_engine, tmp_path):
        engine, instance, _ = warm_engine
        path = tmp_path / "snap"
        path.write_bytes(b"previous")
        engine.save(path)
        assert os.listdir(tmp_path) == ["snap"]
        assert Engine.open(path, instance=instance).stats.graph_builds == 0

    def test_failed_save_keeps_the_previous_snapshot(self, warm_engine, tmp_path, monkeypatch):
        engine, instance, _ = warm_engine
        path = tmp_path / "snap"
        engine.save(path)
        before = path.read_bytes()

        def crash(source, destination):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", crash)
        engine.add_edge("o1", "zz", "fresh")
        with pytest.raises(OSError):
            engine.save(path)
        assert path.read_bytes() == before


# -- damaged files -------------------------------------------------------------
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0), st.integers(0, 7)),
    st.tuples(st.just("overwrite"), st.integers(0), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0), st.none()),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=40), st.none()),
)


def mutate(blob: bytes, mutation) -> bytes:
    """A file that differs from ``blob`` by one flip/overwrite/cut/extension."""
    kind, where, how = mutation
    if kind == "append":
        return blob + where
    position = where % len(blob)
    if kind == "truncate":
        return blob[:position]
    changed = bytearray(blob)
    if kind == "flip":
        changed[position] ^= 1 << how
    else:
        changed[position] = (changed[position] + how) % 256
    return bytes(changed)


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """``{oid kind: (path, good bytes, instance)}``: a JSON and a pickle node table."""
    directory = tmp_path_factory.mktemp("damaged")
    files = {}
    for kind, (instance, source) in {
        "str": web_like_graph(50, ["a", "b", "c"], seed=2),
        "int": random_graph(30, 2, ["a", "b"], seed=7),
    }.items():
        path = directory / f"{kind}.snap"
        engine = Engine.open(instance)
        engine.query("a b*", source)
        engine.save(path)
        files[kind] = (path, path.read_bytes(), instance)
    return files


def regions(blob: bytes) -> "dict[str, range]":
    """The byte range of every part of a snapshot file."""
    version_at = len(MAGIC)
    _, header_length = struct.unpack_from("<II", blob, version_at)
    header_at = version_at + 8
    nodes_at = header_at + header_length
    integers_at = nodes_at + json.loads(blob[header_at:nodes_at])["nodes"]["bytes"]
    digest_at = len(blob) - DIGEST_SIZE
    return {
        "magic": range(0, version_at),
        "version": range(version_at, version_at + 4),
        "header-length": range(version_at + 4, header_at),
        "header": range(header_at, nodes_at),
        "nodes": range(nodes_at, integers_at),
        "integers": range(integers_at, digest_at),
        "digest": range(digest_at, len(blob)),
    }


@pytest.fixture(scope="module")
def saved_directory(tmp_path_factory):
    instance, _ = web_like_graph(40, ["a", "b", "c"], seed=11)
    directory = tmp_path_factory.mktemp("damaged-shards")
    with closing(ShardedEngine.open(instance, shards=2)) as sharded:
        sharded.query_all("a (b + c)*")
        sharded.save(directory)
    return directory, instance


class TestDamagedFiles:
    """No mutant of a saved file opens, and none fails with anything but ReproError."""

    @pytest.mark.parametrize("with_instance", [False, True], ids=["alone", "instance"])
    @pytest.mark.parametrize("kind", ["str", "int"])
    @given(mutation=MUTATIONS)
    @settings(max_examples=200, deadline=None)
    def test_no_mutant_of_a_snapshot_opens(self, saved_files, kind, with_instance, mutation):
        path, good, instance = saved_files[kind]
        path.write_bytes(mutate(good, mutation))
        with pytest.raises(ReproError):
            Engine.open(path, instance=instance if with_instance else None)

    @pytest.mark.parametrize(
        "region", ["magic", "version", "header-length", "header", "nodes", "integers", "digest"]
    )
    def test_one_flipped_bit_in_any_part_is_refused(self, saved_files, region):
        for path, good, instance in saved_files.values():
            span = regions(good)[region]
            for position in (span[0], span[len(span) // 2], span[-1]):
                path.write_bytes(mutate(good, ("flip", position, 0)))
                with pytest.raises(ReproError):
                    Engine.open(path)
                with pytest.raises(ReproError):
                    Engine.open(path, instance=instance)

    @pytest.mark.parametrize("with_instance", [False, True], ids=["alone", "instance"])
    @given(mutation=MUTATIONS)
    @settings(max_examples=100, deadline=None)
    def test_no_mutant_of_a_shard_file_opens(self, saved_directory, with_instance, mutation):
        directory, instance = saved_directory
        shard = directory / "shard-0001.snap"
        good = shard.read_bytes()
        try:
            shard.write_bytes(mutate(good, mutation))
            with pytest.raises(ReproError):
                ShardedEngine.open(directory, instance=instance if with_instance else None)
        finally:
            shard.write_bytes(good)

    def test_undamaged_fixtures_open(self, saved_files, saved_directory):
        # The properties above are vacuous if the unmutated files fail too.
        for path, good, instance in saved_files.values():
            path.write_bytes(good)
            assert Engine.open(path, instance=instance).stats.graph_builds == 0
        directory, instance = saved_directory
        with closing(ShardedEngine.open(directory, instance=instance)) as warm:
            assert warm.rebuilt_shards == 0

    def test_digest_is_checked_before_anything_is_unpickled(self, saved_files, monkeypatch):
        path, good, _ = saved_files["int"]  # the node table is a pickle
        path.write_bytes(good[:-1] + bytes([good[-1] ^ 1]))

        def forbidden(*args):
            raise AssertionError("decoded a file whose digest does not hold")

        monkeypatch.setattr(snapshot.pickle, "loads", forbidden)
        monkeypatch.setattr(snapshot.zlib, "decompress", forbidden)
        with pytest.raises(ReproError, match="checksum"):
            load_payload(path)

    def test_interrupted_sharded_save_is_refused_by_name(self, saved_directory, tmp_path):
        # What a crash between the shard files and the manifest leaves: a
        # valid newer shard file beside a manifest that records the older one.
        directory, instance = saved_directory
        shard = directory / "shard-0000.snap"
        good = shard.read_bytes()
        changed = instance.copy()
        changed.add_edge("p0", "a", "p1")
        changed.add_edge("p0", "zz", "p2")
        with closing(ShardedEngine.open(changed, shards=2)) as newer:
            newer.save(tmp_path / "newer")
        try:
            shard.write_bytes((tmp_path / "newer" / "shard-0000.snap").read_bytes())
            assert shard.read_bytes()[-DIGEST_SIZE:] != good[-DIGEST_SIZE:]
            with pytest.raises(ReproError, match="shard-0000.snap"):
                ShardedEngine.open(directory, instance=instance)
        finally:
            shard.write_bytes(good)

    def test_manifest_records_each_shard_files_trailer(self, saved_directory):
        directory, _ = saved_directory
        manifest = json.loads((directory / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert "codec" not in manifest
        for entry in manifest["shards"]:
            trailer = (directory / entry["file"]).read_bytes()[-DIGEST_SIZE:]
            assert entry["digest"] == trailer.hex()
