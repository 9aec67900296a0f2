"""Sharded compiled serving: one compiled graph, one snapshot file per shard.

The paper's Section 3 evaluates path queries over a *distributed* instance —
every object is a site that only knows its own outgoing links, and sites
exchange subquery messages until the whole query is answered.
:mod:`repro.distributed` reproduces that protocol message-for-message over
the slow baseline evaluator; the answer it computes, ``p(o, I)``, does not
depend on how the sites are grouped.  So a :class:`ShardedEngine` is an
:class:`~repro.engine.session.Engine`: it compiles one
:class:`~repro.engine.csr.CompiledGraph` from the whole instance, with the
node ids ``Engine.open(instance)`` gives, and evaluates, edits, refreshes
and compacts exactly as an engine does.  The shards decide only where the
data lives on disk:

* a pluggable :class:`ShardMap` assigns every object (site) to one shard —
  stable hashing by oid (:class:`HashShardMap`, the default), an explicit
  assignment (:class:`ExplicitShardMap`), or one shard per site
  (:meth:`ShardMap.by_site`, the 1:1 image of the distributed site model);
* :meth:`ShardedEngine.save` writes one file per shard, in the snapshot
  container of :mod:`repro.engine.snapshot`: the oids of the nodes the
  shard owns, their ids, and their out-edges as CSR rows in the graph's
  node and label ids (shard 0's file also carries the warm query cache).
  A JSON manifest is written last: the shard map spec, the label order,
  the node count, one fingerprint per shard and every file's digest;
* :meth:`ShardedEngine.open` on a directory decodes the shard files into
  one graph.  Given the live instance, it first compares the
  whole-instance fingerprint; only on a mismatch does it work out each
  shard's fingerprint, and then it rebuilds the rows of the stale shards
  alone from the instance, while every warm shard's rows come from its
  file, never recompiled.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from ..exceptions import ReproError
from ..graph.instance import Instance, Oid
from .csr import CompiledGraph
from .session import Engine, EngineStats
from .snapshot import (
    DIGEST_SIZE,
    cache_chunks,
    cache_entries,
    cache_header,
    encode_container,
    instance_from_graph,
    read_container,
    seed_cache,
    stored_digest,
    undecodable,
    write_replacing,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..constraints.constraint import ConstraintSet
    from ..optimize.cost import CostModel

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT_VERSION = 3


def _oid_digest(oid: Oid) -> int:
    """A process-stable 64-bit digest of one oid (``repr``-based, like the
    instance content fingerprint, so shard assignment survives restarts)."""
    payload = repr(oid).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


class ShardMap:
    """Assignment of every object (site) to one shard in ``0..num_shards-1``.

    Subclasses implement :meth:`shard_of` and :meth:`spec`; the spec is what
    the snapshot manifest records, and :meth:`from_spec` reconstructs maps
    whose spec is self-contained (hash maps).  Explicit maps record only a
    digest — reopening their snapshots requires the caller to re-supply the
    map, which is validated against the digest.
    """

    num_shards: int

    def shard_of(self, oid: Oid) -> int:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """A stable digest of the spec, for manifest validation."""
        blob = json.dumps(self.spec(), sort_keys=True).encode("utf-8")
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    @staticmethod
    def from_spec(spec: Mapping) -> "ShardMap":
        """Rebuild a shard map from a manifest spec (hash maps only)."""
        kind = spec.get("kind")
        if kind == "hash":
            return HashShardMap(int(spec["num_shards"]))
        if kind == "explicit":
            raise ReproError(
                "this snapshot was sharded with an explicit site->shard "
                "assignment, which the manifest stores only as a digest; "
                "pass the same shard_map= to open it"
            )
        raise ReproError(f"unknown shard map kind {kind!r} in manifest")

    @staticmethod
    def by_site(instance: Instance) -> "ExplicitShardMap":
        """One shard per object: the 1:1 image of the paper's site model.

        Every object of ``instance`` becomes its own shard (sorted by
        ``repr`` for a deterministic numbering), so every edge between two
        objects is a cross-shard edge, as every link between two sites is
        in the distributed protocol.
        """
        assignment = {
            oid: position
            for position, oid in enumerate(sorted(instance.objects, key=repr))
        }
        return ExplicitShardMap(assignment, num_shards=max(1, len(assignment)))


class HashShardMap(ShardMap):
    """Stable hash-by-oid placement: the default, reconstructible map."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ReproError("a sharded engine needs at least one shard")
        self.num_shards = num_shards

    def shard_of(self, oid: Oid) -> int:
        return _oid_digest(oid) % self.num_shards

    def spec(self) -> dict:
        return {"kind": "hash", "num_shards": self.num_shards}

    def __repr__(self) -> str:
        return f"HashShardMap(num_shards={self.num_shards})"


class ExplicitShardMap(ShardMap):
    """An explicit site→shard assignment (e.g. one shard per distributed site).

    Objects missing from the assignment — typically oids added after the map
    was fixed — fall back to stable hashing so every object always has an
    owner.  The manifest records only an order-insensitive digest of the
    assignment; reopening a snapshot sharded this way requires re-supplying
    the map.
    """

    def __init__(self, assignment: Mapping[Oid, int], num_shards: "int | None" = None) -> None:
        self._assignment = dict(assignment)
        inferred = max(self._assignment.values(), default=-1) + 1
        self.num_shards = inferred if num_shards is None else num_shards
        if self.num_shards < 1:
            raise ReproError("a sharded engine needs at least one shard")
        digest = 0
        for oid, shard in self._assignment.items():
            if not 0 <= shard < self.num_shards:
                raise ReproError(
                    f"shard {shard} of oid {oid!r} is outside 0..{self.num_shards - 1}"
                )
            digest ^= _oid_digest((repr(oid), shard))
        # The assignment is a private copy that nothing mutates, so its
        # digest is taken once, not on every save and open.
        self._spec = {
            "kind": "explicit",
            "num_shards": self.num_shards,
            "assignment_digest": format(digest, "016x"),
            "assigned": len(self._assignment),
        }

    def shard_of(self, oid: Oid) -> int:
        shard = self._assignment.get(oid)
        if shard is None:
            return _oid_digest(oid) % self.num_shards
        return shard

    def spec(self) -> dict:
        return dict(self._spec)

    def __repr__(self) -> str:
        return (
            f"ExplicitShardMap({len(self._assignment)} oids, "
            f"num_shards={self.num_shards})"
        )


def _shard_fingerprints(instance: Instance, owned: "list[list[Oid]]") -> "list[str]":
    """One process-stable digest per shard of ``instance``, whose objects
    ``owned`` lists shard by shard: the XOR, over the shard's objects, of a
    blake2b digest of each object's description (its oid and its out-edges
    in ``repr`` order).  A shard's fingerprint moves exactly when it gains
    an object or one of its objects' descriptions changes."""
    fingerprints = []
    for oids in owned:
        digest = 0
        for oid in oids:
            payload = repr((oid, sorted(map(repr, instance.out_edges(oid)))))
            digest ^= int.from_bytes(
                hashlib.blake2b(payload.encode("utf-8"), digest_size=16).digest(), "big"
            )
        fingerprints.append(format(digest, "032x"))
    return fingerprints


class _Rows(NamedTuple):
    """Some nodes' out-edges: their oids and ascending ``ids``, and per
    label id their ``degrees`` (one per id) and ``targets`` (concatenated,
    each row ascending)."""

    oids: list
    ids: array
    degrees: "list[array]"
    targets: "list[array]"


def _runs(ids: Sequence[int]) -> "list[list[int]]":
    """``ids`` as runs of consecutive ids: ``[first id, end id, position of
    the first in ids]``."""
    runs: "list[list[int]]" = []
    for position, node in enumerate(ids):
        if runs and runs[-1][1] == node:
            runs[-1][1] = node + 1
        else:
            runs.append([node, node + 1, position])
    return runs


def _graph_rows(parts: dict, ids: array) -> _Rows:
    """The rows of ``ids`` in a compact graph's :meth:`CompiledGraph.to_parts
    <repro.engine.csr.CompiledGraph.to_parts>`: slices of its CSR arrays."""
    runs = _runs(ids)
    degrees, targets = [], []
    for indptr, buffer in zip(parts["indptr"], parts["targets"]):
        if not indptr:  # a label interned since the last build, no edge left
            degrees.append(array("q", bytes(8 * len(ids))))
            targets.append(array("q"))
            continue
        row_degrees, row_targets = array("q"), array("q")
        for start, stop, _ in runs:
            row_degrees.extend(map(sub, indptr[start + 1 : stop + 1], indptr[start:stop]))
            row_targets.extend(buffer[indptr[start] : indptr[stop]])
        degrees.append(row_degrees)
        targets.append(row_targets)
    return _Rows([parts["nodes"][node] for node in ids], ids, degrees, targets)


def _instance_rows(
    instance: Instance, oids: "list[Oid]", node_ids: "dict[Oid, int]",
    label_ids: "dict[str, int]",
) -> _Rows:
    """The rows of the objects ``oids``, built from ``instance`` in the
    graph's node and label ids: a stale shard's rebuild."""
    oids = sorted(oids, key=node_ids.__getitem__)
    degrees = [array("q", bytes(8 * len(oids))) for _ in label_ids]
    targets: "list[array]" = [array("q") for _ in label_ids]
    for row, oid in enumerate(oids):
        for label, target in sorted(
            (label_ids[label], node_ids[destination])
            for label, destination in instance.out_edges(oid)
        ):
            degrees[label][row] += 1
            targets[label].append(target)
    return _Rows(oids, array("q", map(node_ids.__getitem__, oids)), degrees, targets)


def _read_shard(path: str, labels: int, nodes: int) -> "tuple[_Rows, list]":
    """``(rows, warm cache entries)`` of one shard file, checked against the
    manifest's ``labels`` label ids and ``nodes`` node ids.

    The digest proves the bytes are the ones written, not that a writer
    stayed inside the manifest's tables: a node or label id outside them,
    or rows that do not add up, is a :class:`ReproError` here, before any
    graph is built.
    """
    header, oids, chunks = read_container(path)
    with undecodable(path):
        count = header["labels"]
        if count > labels:
            raise ReproError(
                f"shard file {path!r} names label id {count - 1}, outside the "
                f"manifest's {labels} labels"
            )
        cache = header["cache"]
        if len(chunks) != 1 + 2 * count + 2 * len(cache):
            raise ReproError(f"shard file {path!r} holds {len(chunks)} integer chunks")
        ids = chunks[0]
        degrees = chunks[1 : 1 + count]
        targets = chunks[1 + count : 1 + 2 * count]
        for column in (ids, *targets):
            if column and not 0 <= min(column) <= max(column) < nodes:
                raise ReproError(
                    f"shard file {path!r} names node id "
                    f"{min(column) if min(column) < 0 else max(column)}, outside "
                    f"the manifest's {nodes} nodes"
                )
        if len(oids) != len(ids) or any(
            len(row) != len(ids) or (row and min(row) < 0) or sum(row) != len(column)
            for row, column in zip(degrees, targets)
        ):
            raise ReproError(f"shard file {path!r} holds rows that do not add up")
        return _Rows(oids, ids, degrees, targets), cache_entries(cache, chunks[1 + 2 * count :])


def _assemble(rows: "list[_Rows]", labels: "list[str]", version: int) -> CompiledGraph:
    """One compact graph from every shard's ``rows``, whose ids must number
    the nodes ``0..n-1`` once each."""
    segments = sorted(
        (start, stop, shard, position)
        for shard, block in enumerate(rows)
        for start, stop, position in _runs(block.ids)
    )
    nodes: list = []
    for start, stop, shard, position in segments:
        if start != len(nodes):
            raise ReproError(
                f"the shard files do not number the nodes once each (node id "
                f"{min(start, len(nodes))})"
            )
        nodes.extend(rows[shard].oids[position : position + stop - start])
    if len(set(nodes)) != len(nodes):
        raise ReproError("the shard files name one object under two node ids")
    indptr, targets = [], []
    for label in range(len(labels)):
        label_degrees, label_targets = array("q"), array("q")
        offsets = [
            array("q", accumulate(block.degrees[label], initial=0))
            if label < len(block.degrees) else None
            for block in rows
        ]
        for start, stop, shard, position in segments:
            block, offset = rows[shard], offsets[shard]
            end = position + stop - start
            if offset is None:  # the shard's file predates the label
                label_degrees.frombytes(bytes(8 * (stop - start)))
                continue
            label_degrees.extend(block.degrees[label][position:end])
            label_targets.extend(block.targets[label][offset[position] : offset[end]])
        indptr.append(array("q", accumulate(label_degrees, initial=0)))
        targets.append(label_targets)
    return CompiledGraph.from_parts(
        nodes=nodes,
        labels=labels,
        csr_nodes=len(nodes),
        indptr=indptr,
        targets=targets,
        overflow=[{} for _ in labels],
        dead=[set() for _ in labels],
        version=version,
    )


@dataclass
class ShardedStats(EngineStats):
    """Counters accumulated across the lifetime of one sharded session."""

    warm_shards: int = 0
    rebuilt_shards: int = 0
    visited_objects: int = 0
    # Read by the frozen e2e clustered_sharded_crpq.py; ROADMAP item 3 (ii) deletes them.
    supersteps: int = 0
    local_runs: int = 0
    exchanged_facts: int = 0
    steal_events: int = 0
    superstep_skew_ratio: float = 1.0

    _GAUGES = EngineStats._GAUGES + (
        ("warm_shards", "shards decoded from snapshot files"),
        ("rebuilt_shards", "shards built from the instance"),
        ("visited_objects", "objects visited by executor runs"),
    )

    def record_run(self, run) -> None:
        super().record_run(run)
        self.supersteps += 1
        self.local_runs += 1
        self.visited_objects += run.visited_objects


class ShardedEngine(Engine):
    """An :class:`~repro.engine.session.Engine` whose snapshot is one file
    per shard of a :class:`ShardMap` (module docstring).

    The graph, the compiler, evaluation, edits, ``refresh`` and compaction
    are the engine's own; only :meth:`open` and :meth:`save` differ.
    ``warm_shards`` counts the shards decoded from files when the session
    opened, ``rebuilt_shards`` every shard built from the instance (all of
    them on a cold open, or again on a rebuild after an out-of-band edit).
    """

    _PREFIX = "sharded"
    # Read by the frozen e2e clustered_sharded_crpq.py; ROADMAP item 3 (ii) renames it.
    _RUN_HISTOGRAM = (
        "sharded_local_fixpoint_seconds", "executor run latency (traversal only)"
    )
    _STATS = ShardedStats

    def __init__(
        self,
        instance: Instance,
        *,
        shards: "int | None" = None,
        shard_map: "ShardMap | None" = None,
        constraints: "ConstraintSet | None" = None,
        cost_model: "CostModel | None" = None,
        cache_capacity: int = 128,
        backend: str = "auto",
        concurrency: "int | None" = None,
        _graph: "CompiledGraph | None" = None,
    ) -> None:
        if shard_map is None:
            if shards is None:
                raise ReproError("a sharded engine needs shards=N or an explicit shard_map=")
            shard_map = HashShardMap(shards)
        elif shards is not None and shards != shard_map.num_shards:
            raise ReproError(
                f"shards={shards} contradicts the supplied shard map "
                f"({shard_map.num_shards} shards)"
            )
        self._map = shard_map
        # Checked, without effect: the frozen e2e clustered_sharded_crpq.py
        # passes it; ROADMAP item 3 (ii) deletes it.
        if concurrency is not None and concurrency < 1:
            raise ReproError("concurrency must be a positive worker count")
        super().__init__(
            instance,
            constraints=constraints,
            cost_model=cost_model,
            cache_capacity=cache_capacity,
            backend=backend,
            _graph=_graph,
        )
        self.metrics.registry.gauge(
            "sharded_shards", "shard count", self._map.num_shards.__int__
        )

    def _compile(self, instance: Instance) -> CompiledGraph:
        self.stats.rebuilt_shards += self.num_shards
        return super()._compile(instance)

    # -- introspection --------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self._map.num_shards

    @property
    def shard_map(self) -> ShardMap:
        return self._map

    @property
    def shard_engines(self) -> "tuple[ShardedEngine, ...]":
        # Read by the frozen e2e clustered_sharded_crpq.py; ROADMAP item 3 (ii) deletes it.
        return (self,)

    @property
    def warm_shards(self) -> int:
        return self.stats.warm_shards

    @property
    def rebuilt_shards(self) -> int:
        return self.stats.rebuilt_shards

    # -- persistence ----------------------------------------------------------
    def save(self, directory: "str | os.PathLike") -> None:
        """Persist one snapshot file per shard plus a manifest into
        ``directory`` (see the module docstring for what each holds).

        The graph is compacted first, so every row leaves as one ascending
        CSR slice.  The manifest is written last and records every shard
        file's digest trailer, so a save that was interrupted between two
        files is refused by :meth:`open` instead of mixing two generations
        of shards.
        """
        with self._lock:
            self.compact_now()
            instance = self.instance
            parts = self._graph.to_parts()
            nodes = parts["nodes"]
            owned = [array("q") for _ in range(self.num_shards)]
            shard_of = self._map.shard_of
            for node, oid in enumerate(nodes):
                owned[shard_of(oid)].append(node)
            rows = [_graph_rows(parts, ids) for ids in owned]
            fingerprints = _shard_fingerprints(instance, [block.oids for block in rows])
            cache = self.compiler.warm_entries(self._graph)
            # Stored integers are node ids, degrees, DFA states plus one and
            # flags: none exceeds the largest of these counts.
            largest = max(
                [len(nodes)]
                + [len(targets) for targets in parts["targets"]]
                + [len(compiled.table) for _, compiled in cache]
            )
            os.makedirs(directory, exist_ok=True)
            entries = []
            for shard, block in enumerate(rows):
                carried = cache if shard == 0 else []
                blob = encode_container(
                    {"labels": len(parts["labels"]), "cache": cache_header(carried)},
                    block.oids,
                    [block.ids, *block.degrees, *block.targets, *cache_chunks(carried)],
                    largest,
                )
                filename = f"shard-{shard:04d}.snap"
                write_replacing(os.path.join(directory, filename), blob)
                entries.append(
                    {
                        "file": filename,
                        "digest": blob[-DIGEST_SIZE:].hex(),
                        "fingerprint": fingerprints[shard],
                        "objects": len(block.ids),
                        "edges": sum(map(len, block.targets)),
                    }
                )
            manifest = {
                "format_version": MANIFEST_FORMAT_VERSION,
                "shard_map": self._map.spec(),
                "shard_map_fingerprint": self._map.fingerprint(),
                "labels": parts["labels"],
                "nodes": len(nodes),
                "version": parts["version"],
                "instance_fingerprint": instance.content_fingerprint(),
                "shards": entries,
            }
            write_replacing(
                os.path.join(directory, MANIFEST_NAME),
                (json.dumps(manifest, indent=2) + "\n").encode("utf-8"),
            )

    @classmethod
    def open(
        cls,
        source: "Instance | str | os.PathLike",
        *,
        instance: "Instance | None" = None,
        shards: "int | None" = None,
        shard_map: "ShardMap | None" = None,
        constraints: "ConstraintSet | None" = None,
        cost_model: "CostModel | None" = None,
        cache_capacity: int = 128,
        backend: str = "auto",
        concurrency: "int | None" = None,
    ) -> "ShardedEngine":
        """Return a ready-to-serve sharded session.

        ``source`` is either an :class:`Instance` — compiled from scratch,
        exactly as :meth:`Engine.open <repro.engine.session.Engine.open>`
        compiles it — or a snapshot *directory* written by :meth:`save`.
        When opening a directory, ``instance`` optionally supplies the live
        instance: on a fingerprint mismatch only the stale shards' rows are
        rebuilt from it, while warm shards load from disk.  A directory
        saved under another shard map is rebuilt from ``instance`` whole.
        Without ``instance``, the instance is reconstructed from the graph.
        """
        options = dict(
            constraints=constraints,
            cost_model=cost_model,
            cache_capacity=cache_capacity,
            backend=backend,
            concurrency=concurrency,
        )
        if not isinstance(source, (str, os.PathLike)):
            if instance is not None:
                raise ReproError(
                    "instance= is only meaningful when opening a snapshot directory"
                )
            return cls(source, shards=shards, shard_map=shard_map, **options)
        directory = os.fspath(source)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise ReproError(
                f"{directory!r} is not a sharded snapshot (no {MANIFEST_NAME})"
            ) from None
        except json.JSONDecodeError as error:
            raise ReproError(
                f"{manifest_path!r} is a corrupt sharded manifest: {error}"
            ) from error
        version = manifest.get("format_version")
        if version != MANIFEST_FORMAT_VERSION:
            raise ReproError(
                f"unsupported sharded manifest version {version} "
                f"(this build reads version {MANIFEST_FORMAT_VERSION})"
            )
        if shard_map is not None:
            if shard_map.fingerprint() != manifest.get("shard_map_fingerprint"):
                # A different partitioning makes every shard file meaningless;
                # rebuild from the live instance when we have one.
                if instance is None:
                    raise ReproError(
                        "the supplied shard map does not match the snapshot "
                        "manifest, and no instance= was given to rebuild from"
                    )
                return cls(instance, shard_map=shard_map, **options)
        else:
            shard_map = ShardMap.from_spec(manifest.get("shard_map", {}))
        if shards is not None and shards != shard_map.num_shards:
            raise ReproError(
                f"snapshot directory holds {shard_map.num_shards} shards; "
                f"shards={shards} contradicts it (omit shards= to reuse the "
                f"manifest, or rebuild from an instance)"
            )
        with undecodable(manifest_path):
            entries = manifest["shards"]
            if len(entries) != shard_map.num_shards:
                raise ReproError(
                    f"manifest lists {len(entries)} shard files for "
                    f"{shard_map.num_shards} shards"
                )
            labels = [str(label) for label in manifest["labels"]]
            saved = tuple(labels)
            if len(set(labels)) != len(labels):
                raise ReproError(f"{manifest_path!r} lists a label twice")
            rows, cache = [], []
            for entry in entries:
                path = os.path.join(directory, entry["file"])
                if stored_digest(path) != entry["digest"]:
                    raise ReproError(
                        f"shard file {path!r} is not the one its manifest "
                        f"records (damaged, or a save was interrupted); save "
                        f"the directory again"
                    )
                block, carried = _read_shard(path, len(labels), manifest["nodes"])
                rows.append(block)
                cache.extend(carried)
            stale: "list[int]" = []
            if (
                instance is not None
                and instance.content_fingerprint() != manifest["instance_fingerprint"]
            ):
                objects = instance.objects
                node_ids = {
                    oid: node for block in rows for node, oid in zip(block.ids, block.oids)
                }
                if not objects.issuperset(node_ids):
                    # An object the snapshot numbered is gone: no id survives.
                    return cls(instance, shard_map=shard_map, **options)
                owned: "list[list[Oid]]" = [[] for _ in entries]
                for oid in objects:
                    owned[shard_map.shard_of(oid)].append(oid)
                stale = [
                    shard
                    for shard, fingerprint in enumerate(_shard_fingerprints(instance, owned))
                    if fingerprint != entries[shard]["fingerprint"]
                ]
                for oid in sorted(objects.difference(node_ids), key=repr):
                    node_ids[oid] = len(node_ids)
                labels.extend(sorted(instance.labels() - set(labels)))
                label_ids = {label: index for index, label in enumerate(labels)}
                for shard in stale:
                    rows[shard] = _instance_rows(instance, owned[shard], node_ids, label_ids)
            graph = _assemble(rows, labels, manifest["version"])
        if instance is None:
            instance = instance_from_graph(graph)
        engine = cls(instance, shard_map=shard_map, _graph=graph, **options)
        engine.stats.warm_shards = shard_map.num_shards - len(stale)
        engine.stats.rebuilt_shards = len(stale)
        seed_cache(engine, cache, saved)
        return engine
