"""Versioned on-disk snapshots of a compiled engine session.

The compiled substrate — interned labels/oids, the label-partitioned CSR
(index/targets arrays, overflow adjacency, tombstone sets) and the warm
query cache's DFA transition tables — is expensive to build and cheap to
store, so a serving process should be able to write it once and warm-start
any number of later sessions from disk (``Engine.save(path)`` /
``Engine.open(path, instance=...)``).

There is one format, written and read with the standard library only, so
the same engine saves the same bytes with and without numpy::

    MAGIC | version, header length | header | nodes | integers | digest

* *header* — one JSON object: the stamp, the graph's version, ``csr_nodes``
  and labels, the metadata of every cache entry, how the node table is
  encoded and how long it is, and the item size and chunk offsets of the
  integer section.  A sharded session's shard files are the same container
  with a header of their own (see :mod:`repro.engine.sharding`).
* *nodes* — the oid list, zlib-compressed: one JSON array when every oid is
  a ``str``, a :mod:`pickle` blob otherwise.
* *integers* — every integer array (per label: CSR index, targets,
  tombstones, overflow sources and destinations; per cache entry: the
  transition table and the accepting flags) concatenated into one
  little-endian array, 32-bit when every value fits and 64-bit otherwise,
  zlib-compressed.
* *digest* — a blake2b digest of all preceding bytes.  ``read_container``
  checks it before it decodes, decompresses or unpickles anything, so a
  truncated or damaged file is refused instead of answering wrongly.

A snapshot is a rebuildable cache, not an archive: a file of any other
format version (including the ``.npz`` archives older builds wrote) is
refused with an error that says to save it again.  Files are written to
``path + ".tmp"`` and moved into place, so a crash leaves the previous
snapshot, never half of the new one.

Staleness is handled with a *stamp*: the instance's version counters plus a
process-stable content fingerprint (the XOR of one ``repr``-based blake2b
digest per object and per edge, maintained incrementally by
:meth:`~repro.graph.instance.Instance.content_fingerprint` and immune to
hash randomization).  ``load_engine`` validates
the stamp against a supplied live instance and silently falls back to a
full rebuild on mismatch — a stale snapshot can cost time, never answers.
Even on fallback, cached transition tables are re-seeded when the rebuilt
graph's label fingerprint matches the stored one (tables depend only on the
label-id assignment, not on the edge set).

Object identifiers are arbitrary hashables; when they are not all strings
they are embedded with :mod:`pickle`, so snapshots — like pickle files —
should only be loaded from trusted sources (the digest detects damage, not
forgery).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import sys
import zlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import ReproError
from ..graph.instance import Instance
from .compiled_query import DEAD, CompiledQuery
from .csr import CompiledGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Engine

MAGIC = b"RPQSNAP\x01"
FORMAT_VERSION = 2
DIGEST_SIZE = 16
_PREFIX = struct.Struct("<II")  # format version, header length; follows MAGIC
# The integer section is written 32-bit when every value is below this.
_NARROW_LIMIT = 2**32
_RESAVE = (
    "a snapshot is a rebuildable cache, not an archive: files of other builds "
    "(format version 1, .npz archives) are not read, re-save it from the graph"
)


@dataclass(frozen=True)
class SnapshotStamp:
    """Staleness stamp: version counters + content digest of the instance.

    The counters are informational (they are lifetime-specific); validation
    against a live instance uses the :meth:`Instance.content_fingerprint`
    digest, which is stable across processes.
    """

    instance_version: int
    edge_version: int
    fingerprint: str


@dataclass
class SnapshotPayload:
    """The decoded content of a snapshot file."""

    stamp: SnapshotStamp
    graph_parts: dict
    cache: "list[tuple[str, CompiledQuery]]"


def _digest(data) -> bytes:
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


def encode_container(header: dict, nodes: list, chunks, largest: int) -> bytes:
    """One snapshot file: ``header`` (a JSON object, to which the node and
    integer layout is added), the ``nodes`` table and the integer
    ``chunks``, none of which may hold a value above ``largest`` or below 0.

    Every snapshot file is this container, whatever its header describes:
    an engine's whole graph (:func:`save_engine`) or one shard's rows
    (:mod:`repro.engine.sharding`).
    """
    flat = array("q")
    offsets = [0]
    for chunk in chunks:
        flat.extend(chunk)
        offsets.append(len(flat))
    if sys.byteorder == "big":
        flat.byteswap()
    narrow = bool(flat) and largest < _NARROW_LIMIT
    if narrow:
        # The low half of each little-endian item, copied at C speed
        # (``array("I", flat)`` would box every value).
        integers = memoryview(flat).cast("B").cast("I")[::2].tobytes()
    else:
        integers = flat.tobytes()
    if set(map(type, nodes)) <= {str}:
        encoding = "json"
        node_bytes = json.dumps(nodes, separators=(",", ":")).encode("ascii")
    else:
        encoding = "pickle"
        node_bytes = pickle.dumps(nodes, protocol=4)
    node_blob = zlib.compress(node_bytes)
    header = json.dumps(
        {
            **header,
            "nodes": {"encoding": encoding, "bytes": len(node_blob)},
            "integers": {"itemsize": 4 if narrow else 8, "offsets": offsets},
        }
    ).encode("ascii")
    body = b"".join(
        (
            MAGIC,
            _PREFIX.pack(FORMAT_VERSION, len(header)),
            header,
            node_blob,
            zlib.compress(integers),
        )
    )
    return body + _digest(body)


def _decode_container(blob: bytes) -> "tuple[dict, list, list[array]]":
    """Decode a file whose magic, version and digest have been checked."""
    view = memoryview(blob)
    start = len(MAGIC) + _PREFIX.size
    _, header_length = _PREFIX.unpack_from(blob, len(MAGIC))
    header = json.loads(bytes(view[start : start + header_length]))
    start += header_length
    node_bytes = zlib.decompress(view[start : start + header["nodes"]["bytes"]])
    start += header["nodes"]["bytes"]
    if header["nodes"]["encoding"] == "json":
        nodes: list = json.loads(node_bytes)
    else:
        nodes = pickle.loads(node_bytes)
    narrow = header["integers"]["itemsize"] == 4
    integers = memoryview(zlib.decompress(view[start:-DIGEST_SIZE]))
    offsets = header["integers"]["offsets"]
    chunks: list[array] = []
    for begin, end in zip(offsets, offsets[1:]):
        chunk = array("q", (0,)) * (end - begin)
        if chunk:  # memoryview refuses to cast an empty buffer
            target = memoryview(chunk)
            if narrow:  # the stored words are the low halves of the items
                target = target.cast("B").cast("I")[::2]
            target[:] = integers.cast(target.format)[begin:end]
            if sys.byteorder == "big":
                chunk.byteswap()
        chunks.append(chunk)
    return header, nodes, chunks


def cache_header(entries: "list[tuple[str, CompiledQuery]]") -> list:
    """The header metadata of warm query-cache ``entries``."""
    return [
        {
            "key": key,
            "expression": compiled.expression,
            "initial": compiled.initial,
            "dfa_size": compiled.dfa_size,
            "determinized": compiled.determinized,
            "label_count": compiled.label_count,
        }
        for key, compiled in entries
    ]


def cache_chunks(entries: "list[tuple[str, CompiledQuery]]") -> "list[list[int]]":
    """One table chunk per cache entry, then one accepting-flag chunk per
    entry.  Tables are stored less ``DEAD`` (-1), so that no stored integer
    is negative."""
    return [
        [value - DEAD for row in compiled.table for value in row]
        for _, compiled in entries
    ] + [[int(flag) for flag in compiled.accepting] for _, compiled in entries]


def cache_entries(meta: list, chunks: "list[array]") -> "list[tuple[str, CompiledQuery]]":
    """The cache entries :func:`cache_header` and :func:`cache_chunks` stored."""
    tables, accepts = chunks[: len(meta)], chunks[len(meta) :]
    cache: list[tuple[str, CompiledQuery]] = []
    for entry, table, accept in zip(meta, tables, accepts):
        width = entry["label_count"]
        compiled = CompiledQuery.from_table(
            expression=entry["expression"],
            initial=entry["initial"],
            accepting=tuple(bool(flag) for flag in accept),
            table=tuple(
                array("q", [value + DEAD for value in table[row * width : (row + 1) * width]])
                for row in range(len(accept))
            ),
            label_count=width,
            dfa_size=entry["dfa_size"],
            determinized=entry.get("determinized"),
        )
        cache.append((entry["key"], compiled))
    return cache


def _encode(engine: "Engine") -> bytes:
    instance = engine.instance
    graph = engine.graph
    parts = graph.to_parts()
    nodes: list = parts["nodes"]
    entries = engine.compiler.warm_entries(graph)
    sources: list[list[int]] = []
    destinations: list[list[int]] = []
    for adjacency in parts["overflow"]:
        sources.append([s for s, targets in adjacency.items() for _ in targets])
        destinations.append([d for targets in adjacency.values() for d in targets])
    # Chunk ``section * len(labels) + lid`` holds section ``section`` of label
    # ``lid`` in the order below; then the cache's chunks.
    chunks = (
        parts["indptr"]
        + parts["targets"]
        + [sorted(dead) for dead in parts["dead"]]
        + sources
        + destinations
        + cache_chunks(entries)
    )
    # Every stored integer is a node id, a slot of one label's targets, a DFA
    # state plus one, or a flag; none exceeds the largest of these counts.
    largest = max(
        [len(nodes)]
        + [len(targets) for targets in parts["targets"]]
        + [len(compiled.table) for _, compiled in entries]
    )
    header = {
        "stamp": {
            "instance_version": instance.version,
            "edge_version": instance.edge_version,
            "fingerprint": instance.content_fingerprint(),
        },
        "graph": {
            "version": parts["version"],
            "csr_nodes": parts["csr_nodes"],
            "labels": parts["labels"],
        },
        "cache": cache_header(entries),
    }
    return encode_container(header, nodes, chunks, largest)


def _decode(header: dict, nodes: list, chunks: "list[array]") -> SnapshotPayload:
    labels: list[str] = header["graph"]["labels"]
    count = len(labels)
    indptr, targets, dead, sources, destinations = (
        chunks[section * count : (section + 1) * count] for section in range(5)
    )
    overflow: list[dict[int, list[int]]] = []
    for overflow_src, overflow_dst in zip(sources, destinations):
        adjacency: dict[int, list[int]] = {}
        for source, destination in zip(overflow_src, overflow_dst):
            adjacency.setdefault(source, []).append(destination)
        overflow.append(adjacency)
    graph_parts = {
        "nodes": nodes,
        "labels": labels,
        "csr_nodes": header["graph"]["csr_nodes"],
        "indptr": indptr,
        "targets": targets,
        "overflow": overflow,
        "dead": [set(chunk) for chunk in dead],
        "version": header["graph"]["version"],
    }
    cache = cache_entries(header["cache"], chunks[5 * count :])
    return SnapshotPayload(SnapshotStamp(**header["stamp"]), graph_parts, cache)


# -- top-level save / load -----------------------------------------------------
def write_replacing(path: "str | os.PathLike", data: bytes) -> None:
    """Write ``data`` beside ``path`` and move it into place.

    A crash leaves the previous file or the new one, never part of either.
    """
    staging = os.fspath(path) + ".tmp"
    with open(staging, "wb") as handle:
        handle.write(data)
    os.replace(staging, path)


def save_engine(engine: "Engine", path: "str | os.PathLike") -> None:
    """Write ``engine``'s compiled graph + warm query cache to ``path``.

    Callers normally go through :meth:`Engine.save`, which refreshes the
    engine first so the stamp matches the live instance.
    """
    write_replacing(path, _encode(engine))


def stored_digest(path: "str | os.PathLike") -> str:
    """The digest trailer of the snapshot at ``path``, in hex, unverified."""
    with open(path, "rb") as handle:
        handle.seek(max(os.path.getsize(path) - DIGEST_SIZE, 0))
        return handle.read().hex()


def read_container(path: "str | os.PathLike") -> "tuple[dict, list, list[array]]":
    """Read a snapshot file: ``(header, nodes, integer chunks)``.

    Raises :class:`~repro.exceptions.ReproError` for anything that is not a
    readable snapshot: wrong magic, another format version, or a file whose
    digest trailer does not match its bytes (truncated, extended or
    damaged).  Nothing is decompressed or unpickled before the digest holds.
    """
    name = os.fspath(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ReproError(f"{name!r} is not a repro engine snapshot ({_RESAVE})")
    prefix_end = len(MAGIC) + _PREFIX.size
    if len(blob) >= prefix_end:
        version, _ = _PREFIX.unpack_from(blob, len(MAGIC))
        if version != FORMAT_VERSION:
            raise ReproError(
                f"{name!r}: unsupported snapshot format version {version} (this "
                f"build reads version {FORMAT_VERSION}); {_RESAVE}"
            )
    body = memoryview(blob)[:-DIGEST_SIZE]
    if len(body) < prefix_end or _digest(body) != blob[-DIGEST_SIZE:]:
        raise ReproError(
            f"{name!r} is a truncated or corrupt snapshot (its checksum does "
            f"not match its bytes)"
        )
    with undecodable(name):
        return _decode_container(blob)


@contextmanager
def undecodable(name: str):
    """Turn any error raised while decoding the intact file ``name`` (an
    unpicklable oid class, a header another writer laid out) into a
    :class:`~repro.exceptions.ReproError`."""
    try:
        yield
    except ReproError:
        raise
    except Exception as error:
        raise ReproError(f"snapshot {name!r} cannot be decoded: {error}") from error


def load_payload(path: "str | os.PathLike") -> SnapshotPayload:
    """Read and decode an engine snapshot file (see :func:`read_container`
    for what is refused, and how)."""
    header, nodes, chunks = read_container(path)
    with undecodable(os.fspath(path)):
        return _decode(header, nodes, chunks)


def instance_from_graph(graph: CompiledGraph) -> Instance:
    """Materialize a fresh :class:`Instance` equal to the compiled graph."""
    instance = Instance()
    for oid in graph.nodes.backing_list():
        instance.add_object(oid)
    oid_of = graph.nodes.value_of
    label_of = graph.labels.value_of
    for sid, lid, did in sorted(graph.iter_edges()):
        instance.add_edge(oid_of(sid), label_of(lid), oid_of(did))
    return instance


def seed_cache(engine: "Engine", cache: list, labels: "list[str]") -> None:
    """Seed ``engine``'s compile cache with ``cache``, lowered against the
    label order ``labels``, if its graph interns labels in that order (a
    table's columns are label ids, not edges, so a rebuilt graph can reuse
    them)."""
    fingerprint = engine.graph.labels_fingerprint()
    if fingerprint == tuple(labels):
        for key, compiled in cache:
            engine.compiler.seed(key, compiled, fingerprint)


def load_engine(
    path: "str | os.PathLike",
    *,
    instance: "Instance | None" = None,
    constraints=None,
    cost_model=None,
    cache_capacity: int = 128,
    backend: str = "auto",
) -> "Engine":
    """Warm-start an :class:`Engine` from a snapshot written by ``save``.

    With ``instance``, the stored content fingerprint is validated against
    it; a mismatch falls back to an ordinary cold build from the supplied
    instance (still re-seeding any cached tables the rebuilt label order
    can serve).  Without ``instance``, one is reconstructed from the
    snapshot, so a snapshot alone is a complete, servable artifact.
    """
    from .session import Engine

    payload = load_payload(path)
    graph = CompiledGraph.from_parts(**payload.graph_parts)
    if instance is None:
        instance = instance_from_graph(graph)
        matches = True
    else:
        matches = instance.content_fingerprint() == payload.stamp.fingerprint
    engine = Engine(
        instance,
        constraints=constraints,
        cost_model=cost_model,
        cache_capacity=cache_capacity,
        backend=backend,
        _graph=graph if matches else None,
    )
    seed_cache(engine, payload.cache, payload.graph_parts["labels"])
    return engine
