"""Sharded compiled serving: one :class:`CompiledGraph` per site group.

The paper's Section 3 evaluates path queries over a *distributed* instance —
every object is a site that only knows its own outgoing links, and sites
exchange subquery messages until the whole query is answered.
:mod:`repro.distributed` reproduces that protocol message-for-message over
the slow baseline evaluator; the answer it computes, ``p(o, I)``, does not
depend on how the sites are grouped, and this module serves it from
compiled shards:

* a pluggable :class:`ShardMap` assigns every object (site) to one shard —
  stable hashing by oid (:class:`HashShardMap`, the default), an explicit
  assignment (:class:`ExplicitShardMap`), or one shard per site
  (:meth:`ShardMap.by_site`, the 1:1 image of the distributed site model);
* each shard compiles *its own nodes' descriptions* into a private
  :class:`CompiledGraph` (wrapped in a full :class:`Engine` session, so the
  per-shard staleness stamps, patched lowerings and snapshots all come for
  free).  Edge targets owned by other shards are interned locally as
  **ghost** nodes: reachable, never expanded;
* a query runs as **one fixpoint** over :class:`ShardView`, a read-only
  view of the shard graphs as one graph: its node ids are the owned nodes
  only, every ghost target is renumbered to its owner's id, and its numpy
  lowering is built from the shards' cached lowerings, then patched
  across edits.
  The session runs the same executor calls on it that :class:`Engine`
  runs on its one graph — there are no rounds, barriers or exchanged
  facts, and the work is what the query reaches;
* every shard graph is built against the **shared global label universe**
  (one live label list passed to all shard engines), so a label with no
  edges on some shard still has an id there, the same id on every shard.

Persistence plugs into :mod:`repro.engine.snapshot`: :meth:`ShardedEngine.save`
writes one snapshot file per shard plus a small JSON manifest (shard map
spec, shared label order, per-shard sub-instance fingerprints), and
:meth:`ShardedEngine.open` warm-starts each shard independently — a stale
shard falls back to a cold rebuild of *its* partition while warm shards load
from disk untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from ..analysis.annotations import acquires, guarded_by
from ..exceptions import ReproError
from ..graph.instance import Instance, Oid
from .csr import (
    _PRODUCT_CACHE_SIZE,
    _VERSION,
    CompiledGraph,
    ProductCSR,
    _patch_product,
    _product_dtype,
    _trim_journal,
)
from .interning import Interner
from .session import Engine, Session, _SessionStats
from .snapshot import stored_digest, write_replacing
from .telemetry import current_span, witnessed_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..constraints.constraint import ConstraintSet
    from ..optimize.cost import CostModel
    from .compiled_query import QueryCompiler

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT_VERSION = 2


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
        for oid, shard in self._assignment.items():
            if not 0 <= shard < self.num_shards:
                raise ReproError(
                    f"shard {shard} of oid {oid!r} is outside 0..{self.num_shards - 1}"
                )

    def shard_of(self, oid: Oid) -> int:
        shard = self._assignment.get(oid)
        if shard is None:
            return _oid_digest(oid) % self.num_shards
        return shard

    def spec(self) -> dict:
        digest = 0
        for oid, shard in self._assignment.items():
            digest ^= _oid_digest((repr(oid), shard))
        return {
            "kind": "explicit",
            "num_shards": self.num_shards,
            "assignment_digest": format(digest, "016x"),
            "assigned": len(self._assignment),
        }

    def __repr__(self) -> str:
        return (
            f"ExplicitShardMap({len(self._assignment)} oids, "
            f"num_shards={self.num_shards})"
        )


def partition_instance(instance: Instance, shard_map: ShardMap) -> list[Instance]:
    """Split ``instance`` into one sub-instance per shard.

    Shard ``i``'s sub-instance holds every object the map assigns to it plus
    the full *description* (outgoing edges) of those objects — edge targets
    owned elsewhere appear as objects too, exactly the ghost set the shard's
    compiled graph interns.  Sub-instances are what the per-shard
    :class:`Engine` sessions stamp and snapshot, and the partition is
    deterministic (content fingerprints are order-insensitive), so a
    re-partition of an unchanged instance revalidates every shard snapshot.
    """
    subs = [Instance() for _ in range(shard_map.num_shards)]
    for oid in instance.objects:
        subs[shard_map.shard_of(oid)].add_object(oid)
    for source, label, destination in instance.edges():
        subs[shard_map.shard_of(source)].add_edge(source, label, destination)
    return subs


@dataclass
class ShardedStats(_SessionStats):
    """Counters accumulated across the lifetime of one sharded session."""

    # One per evaluation: every evaluation is one fixpoint over the
    # session's :class:`ShardView`.  Kept only because the e2e benchmark
    # reads them.
    supersteps: int = 0
    local_runs: int = 0
    # Always 0 and 1.0; kept only because the e2e benchmark reads them.
    exchanged_facts: int = 0
    steal_events: int = 0
    superstep_skew_ratio: float = 1.0
    visited_objects: int = 0

    _GAUGES = _SessionStats._GAUGES + (
        ("visited_objects", "objects visited by executor runs"),
    )

    def record_run(self, run) -> None:
        super().record_run(run)
        self.supersteps += 1
        self.local_runs += 1
        self.visited_objects += run.visited_objects


class ShardView:
    """The shard graphs read as one graph: what the kernels and the session
    read of a :class:`CompiledGraph`, and nothing they would write.

    Node ids number the *owned* nodes of every shard, so they are exactly
    the instance's objects: first in ``repr`` order (the numbering a
    monolithic build gives them), then in the order edits intern them.  A
    ghost — a shard's copy of another shard's node, held as an edge
    target — has no id of its own: every edge into one lands on its
    owner's id, so a ghost is never a source, an answer or a counted pair.
    Label ids are the shard graphs' own: the session interns every label
    into every shard in one shared order, so they agree by construction.

    The view is live, like a compiled graph: the session calls :meth:`sync`
    after every edit it routes to a shard, under the write side of its run
    lock, and ``version`` moves whenever a shard graph's moves.  Adjacency
    is the owning shard's, renumbered; the numpy lowering is built from the
    shards' cached lowerings, concatenated and renumbered, and brought
    forward across edits by patching, like a compiled graph's.
    """

    GUARDED_BY = {"_products": "_lock", "_journal": "_lock", "_counts": "_lock"}

    def __init__(
        self,
        graphs: "Sequence[CompiledGraph]",
        labels: "list[str]",
        shard_of: "Callable[[Oid], int]",
    ) -> None:
        self.graphs = tuple(graphs)
        self.nodes: "Interner[Oid]" = Interner()
        self.labels: "Interner[str]" = Interner()
        self._label_order = labels  # the session's live, shared list
        self._shard_of = shard_of
        # Per id: the owning shard and the node's id there.
        self._home = array("q")
        self._local = array("q")
        # Per shard: view id by local id (a ghost's is its owner's).
        self._ids = [array("q") for _ in self.graphs]
        self._stamp: "tuple | None" = None
        self._products: "OrderedDict[tuple, tuple[int, int, ProductCSR]]" = OrderedDict()
        # Routed edits ``(version, sign, source, label, target)`` in view
        # ids, while a cached lowering may need them.
        self._journal: "list[tuple[int, int, int, int, int]]" = []
        self._counts = dict.fromkeys(("built", "patched", "hit"), 0)
        self._lock = witnessed_lock("ShardView._lock")
        self.version = 0
        self.sync()

    def sync(self, edit: "tuple[int, Oid, str, Oid] | None" = None) -> None:
        """Catch up with the shard graphs: number the nodes and labels they
        interned since, and move ``version`` if any of them changed.

        ``edit`` — ``(sign, source, label, destination)`` — is the edge
        change the session just routed to a shard; it is journaled for the
        cached lowerings to patch.
        """
        stamp = (
            len(self._label_order),
            *((graph.version, graph.num_nodes, graph.num_labels) for graph in self.graphs),
        )
        if stamp == self._stamp:
            return
        self._stamp = stamp
        self.version += 1
        for label in self._label_order[len(self.labels):]:
            self.labels.intern(label)
        fresh = []
        for shard, graph in enumerate(self.graphs):
            oids = graph.nodes.backing_list()
            for local in range(len(self._ids[shard]), len(oids)):
                if self._shard_of(oids[local]) == shard:
                    fresh.append((oids[local], shard, local))
        for oid, shard, local in sorted(fresh, key=lambda entry: repr(entry[0])):
            self.nodes.intern(oid)
            self._home.append(shard)
            self._local.append(local)
        order = self.labels.fingerprint()
        for shard, graph in enumerate(self.graphs):
            if graph.labels_fingerprint() != order:
                raise ReproError(
                    f"shard {shard} interns labels as "
                    f"{graph.labels_fingerprint()}, not in the session's "
                    f"order {order}"
                )
            oids = graph.nodes.backing_list()
            ids = self._ids[shard]
            for local in range(len(ids), len(oids)):
                view_id = self.nodes.id_of(oids[local])
                if view_id is None:
                    raise ReproError(
                        f"object {oids[local]!r} is not interned by its owner, "
                        f"shard {self._shard_of(oids[local])}"
                    )
                ids.append(view_id)
        if edit is not None:
            sign, source, label, destination = edit
            with self._lock:
                if self._products:
                    self._journal.append((
                        self.version, sign, self.nodes.id_of(source),
                        self.labels.id_of(label), self.nodes.id_of(destination),
                    ))
                    _trim_journal(self._products, self._journal)

    # -- what the kernels read ------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    def labels_fingerprint(self) -> "tuple[str, ...]":
        return self.labels.fingerprint()

    def label_edge_counts(self) -> "dict[str, int]":
        """Live edge count per label: each edge lives on the shard owning
        its source, so the shards' counts add up to every edge once."""
        counts = dict.fromkeys(self.labels, 0)
        for graph in self.graphs:
            for label, count in graph.label_edge_counts().items():
                counts[label] = counts.get(label, 0) + count
        return counts

    def lowering_counts(self) -> "dict[str, int]":
        """The view's product-lowering lookups by outcome (see
        :meth:`numpy_product_csr`)."""
        with self._lock:
            return dict(self._counts)

    def successors(self, node: int, label_id: int) -> "Sequence[int]":
        """The owning shard's live targets of ``node``, renumbered."""
        shard = self._home[node]
        ids = self._ids[shard]
        return [
            ids[target]
            for target in self.graphs[shard].successors(self._local[node], label_id)
        ]

    def _concatenate(self, moves, n: int) -> ProductCSR:
        """A cold build of the view's lowering of ``moves``: each shard's
        own (cached, per-shard patched) lowering, renumbered.

        A shard's product rows are its owned nodes' (a ghost row is empty),
        and each row and target moves from key ``state * local_n + local``
        to ``state * n + id``.  Rows keep their order within a shard, so
        the concatenation is one scatter, without a sort.
        """
        import numpy as np

        size = len(moves) * n
        parts = []
        for shard, graph in enumerate(self.graphs):
            local = graph.num_nodes
            if not local:
                continue
            product = graph.numpy_product_csr(moves)
            degree = np.diff(product.indptr)
            rows = degree.nonzero()[0]
            if not rows.size:
                continue
            ids = np.array(self._ids[shard], dtype=np.int64)
            targets = product.dst.astype(np.int64)
            parts.append((
                rows // local * n + ids[rows % local],
                degree[rows],
                product.indptr[rows].astype(np.int64),
                targets // local * n + ids[targets % local],
            ))
        total = sum(part[3].size for part in parts)
        dtype = _product_dtype(size, total)
        degree = np.zeros(size, dtype=np.int64)
        for keys, counts, _starts, _targets in parts:
            degree[keys] = counts
        indptr = np.zeros(size + 1, dtype=dtype)
        np.cumsum(degree, out=indptr[1:])
        dst = np.empty(total, dtype=dtype)
        for keys, counts, starts, targets in parts:
            offsets = indptr[keys].astype(np.int64) - starts
            dst[np.arange(targets.size) + offsets.repeat(counts)] = targets
        return ProductCSR(indptr, dst)

    def numpy_product_csr(self, moves) -> ProductCSR:
        """The product adjacency of ``moves`` over the view (see
        :class:`~repro.engine.csr.ProductCSR`), from a small LRU that
        survives edits, as :meth:`CompiledGraph.numpy_product_csr
        <repro.engine.csr.CompiledGraph.numpy_product_csr>` keeps one: a
        lowering made at an older version is patched with the edits
        journaled since (in view ids), and one made for another node count
        is rebuilt by :meth:`_concatenate`.
        """
        n = self.num_nodes
        version = self.version
        pending = None
        with self._lock:
            entry = self._products.get(moves)
            if entry is not None:
                self._products.move_to_end(moves)
                built, nodes, product = entry
                if nodes == n:
                    journal = self._journal
                    pending = journal[bisect_right(journal, built, key=_VERSION):]
                    if len(pending) > product.dst.size:
                        pending = None
            how = "built" if pending is None else "patched" if pending else "hit"
            self._counts[how] += 1
        if how == "built":
            product = self._concatenate(moves, n)
        elif pending:
            product = _patch_product(product, pending, moves, n)
        # Set after the shards' own lookups, which set it on the same span.
        current_span().set(lowering=how)
        if how == "hit" and built == version:
            return product
        with self._lock:
            if self.version == version:
                self._products[moves] = (version, n, product)
                while len(self._products) > _PRODUCT_CACHE_SIZE:
                    self._products.popitem(last=False)
                _trim_journal(self._products, self._journal)
        return product

    # -- translation ------------------------------------------------------------
    def node_id(self, oid: Oid) -> "int | None":
        return self.nodes.id_of(oid)

    def oid_of(self, node: int) -> Oid:
        return self.nodes.value_of(node)

    def oids_of(self, node_ids: Iterable[int]) -> "set[Oid]":
        values = self.nodes.backing_list()
        return {values[node] for node in node_ids}

    def label_id(self, label: str) -> "int | None":
        return self.labels.id_of(label)

    def __repr__(self) -> str:
        return f"ShardView(shards={len(self.graphs)}, nodes={self.num_nodes})"


class ShardedEngine(Session):
    """A sharded compiled-evaluation session.

    The same :class:`~repro.engine.session.Session` API as :class:`Engine`
    — ``query`` / ``query_batch`` / ``query_all`` / ``add_edge`` /
    ``remove_edge`` / ``save`` / ``stats`` — and the same evaluation: the
    instance is partitioned across ``num_shards`` compiled graphs, and every
    query runs once over their :class:`ShardView` (module docstring).
    Shards stay the unit of mutation routing, per-shard snapshots and
    stale-shard-only recompiles.  Construct with :meth:`open` (an instance,
    or a snapshot directory written by :meth:`save`).

    Thread-safety mirrors :class:`Engine`: concurrent queries are safe and
    run side by side under the read side of the session's run lock, while
    an edit holds the session lock and the write side, so a query racing
    an edit answers against the edge set before or after it.
    """

    # ``_subs``/``_shards``/``_view`` are rebuilt references, atomically
    # published under ``_lock``; read paths (properties, gauges) take
    # lock-free point reads of whichever build they land on.
    GUARDED_BY = {
        "_subs": "_lock:mutate",
        "_shards": "_lock:mutate",
        "_view": "_lock:mutate",
        "_instance_version": "_lock",
    }

    _PREFIX = "sharded"
    # The executor-run histogram's name is kept only because the e2e
    # benchmark reads it.
    _RUN_HISTOGRAM = (
        "sharded_local_fixpoint_seconds", "executor run latency (traversal only)"
    )

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
        _restored: "tuple[list[Instance], list[Engine], list[str]] | None" = None,
    ) -> None:
        self._map = self._resolve_map(shards, shard_map)
        # Checked but without effect: kept only because the e2e benchmark
        # passes it.
        if concurrency is not None and concurrency < 1:
            raise ReproError("concurrency must be a positive worker count")
        super().__init__(
            constraints=constraints,
            cost_model=cost_model,
            cache_capacity=cache_capacity,
            backend=backend,
            stats=ShardedStats(),
        )
        self._instance = instance
        registry = self.metrics.registry
        registry.gauge(
            "sharded_shards", "shard count", self._map.num_shards.__int__
        )
        registry.gauge(
            "sharded_warm_shards", "shards warm-started from snapshots",
            lambda: self.warm_shards,
        )
        registry.gauge(
            "sharded_rebuilt_shards", "shards built from scratch",
            lambda: self.rebuilt_shards,
        )
        self._labels: list[str] = []
        self._label_set: set[str] = set()
        # Constraint pre-rewrite happens once, in the session's memo; shard
        # engines are built constraint-free.
        if _restored is None:
            self._build()
        else:
            subs, engines, labels = _restored
            # Adopt the exact list the shard engines were seeded with: it is
            # live and shared, so labels appended later reach their rebuilds.
            self._labels = labels
            self._label_set = set(labels)
            self._subs = subs
            self._shards = engines
            # Warm shards load the manifest's order, a prefix of ``labels``
            # (stale ones rebuilt with all of it): extend them to the rest.
            for engine in engines:
                for label in labels:
                    engine.graph.ensure_label(label)
            self._sync_labels(instance.labels())
            self._view = None
            self._instance_version = instance.version

    @staticmethod
    def _resolve_map(shards: "int | None", shard_map: "ShardMap | None") -> ShardMap:
        if shard_map is not None:
            if shards is not None and shards != shard_map.num_shards:
                raise ReproError(
                    f"shards={shards} contradicts the supplied shard map "
                    f"({shard_map.num_shards} shards)"
                )
            return shard_map
        if shards is None:
            raise ReproError("a sharded engine needs shards=N or an explicit shard_map=")
        return HashShardMap(shards)

    # -- lifecycle ------------------------------------------------------------
    @guarded_by("_lock")
    def _build(self) -> None:
        instance = self._instance
        self._sync_labels(instance.labels())
        self._subs = partition_instance(instance, self._map)
        self._shards = [
            Engine(
                sub,
                cache_capacity=self.cache_capacity,
                backend=self.backend,
                labels=self._labels,
            )
            for sub in self._subs
        ]
        self._view = None
        self._instance_version = instance.version

    def _sync_view(self, edit: "tuple[int, Oid, str, Oid] | None" = None) -> None:
        """Bring the view up to the shard graphs after an edit (one not
        built yet will be built from them)."""
        if self._view is not None:
            self._view.sync(edit)

    def _sync_labels(self, labels: Iterable[str]) -> bool:
        """Append any new labels to the shared order and to every shard graph.

        Sorted insertion keeps the order deterministic; existing ids never
        move (the shared list is append-only, like the interners it seeds).
        """
        fresh = sorted(set(labels) - self._label_set)
        if not fresh:
            return False
        self._labels.extend(fresh)
        self._label_set.update(fresh)
        for engine in getattr(self, "_shards", ()):
            for label in fresh:
                engine.graph.ensure_label(label)
        return True

    # -- introspection --------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self._map.num_shards

    @property
    def shard_map(self) -> ShardMap:
        return self._map

    @property
    def shard_engines(self) -> "tuple[Engine, ...]":
        return tuple(self._shards)

    @property
    def graph(self) -> ShardView:
        """The view over the shard graphs that queries run on, built on
        first use."""
        view = self._view
        if view is None:
            with self._lock:
                if self._view is None:
                    self._view = ShardView(
                        [engine.graph for engine in self._shards],
                        self._labels,
                        self._map.shard_of,
                    )
                view = self._view
        return view

    @property
    def compiler(self) -> "QueryCompiler":
        """Shard 0's compile cache, where queries compile once against the
        view's label order (so shard 0's snapshot carries them)."""
        return self._shards[0].compiler

    @property
    def warm_shards(self) -> int:
        return sum(1 for engine in self._shards if engine.stats.snapshot_restores)

    @property
    def rebuilt_shards(self) -> int:
        return sum(1 for engine in self._shards if engine.stats.graph_builds)

    def __repr__(self) -> str:
        return (
            f"ShardedEngine({self._map!r}, objects={len(self._instance)}, "
            f"edges={self._instance.edge_count()})"
        )

    # -- mutation -------------------------------------------------------------
    def refresh(self) -> bool:
        """Re-partition if the global instance mutated behind our back.

        Mutations routed through :meth:`add_edge` / :meth:`remove_edge` stay
        incremental (the owning shard absorbs them via overflow/tombstones);
        out-of-band instance edits are coarse by design — the partition is a
        derived artifact, so the whole thing is rebuilt.
        """
        with self._lock:
            if self._instance.version == self._instance_version:
                return False
            self._build()
            return True

    @acquires("Engine._lock")
    def add_edge(self, source: Oid, label: str, destination: Oid) -> None:
        """Add one edge, routed to the shard that owns ``source``.

        The destination is registered with *its* owner too (every object
        has an owner, whose id the view gives it), and a genuinely new
        label is interned into every shard graph so the shared label
        universe stays aligned.
        """
        with self._lock:
            self.refresh()
            instance = self._instance
            if instance.has_edge(source, label, destination):
                return
            with self._run_lock.write():
                instance.add_edge(source, label, destination)
                self._sync_labels((label,))
                self._shards[self._map.shard_of(source)].add_edge(
                    source, label, destination
                )
                home = self._map.shard_of(destination)
                if destination not in self._subs[home]:
                    self._subs[home].add_object(destination)
                    self._shards[home].refresh()
                self._sync_view((1, source, label, destination))
            self._instance_version = instance.version

    @acquires("Engine._lock")
    def remove_edge(self, source: Oid, label: str, destination: Oid) -> None:
        """Remove one edge from the shard that owns ``source`` (tombstone)."""
        with self._lock:
            self.refresh()
            with self._run_lock.write():
                self._instance.remove_edge(source, label, destination)
                self._shards[self._map.shard_of(source)].remove_edge(
                    source, label, destination
                )
                self._sync_view((-1, source, label, destination))
            self._instance_version = self._instance.version

    @acquires("Engine._lock")
    def compact_now(self) -> bool:
        """Compact every shard graph now (see ``Engine.compact_now``).

        Returns ``True`` when any shard's layout changed.
        """
        with self._lock:
            self.refresh()
            with self._run_lock.write():
                compacted = [engine.compact_now() for engine in self._shards]
                self._sync_view()
            return any(compacted)

    @property
    def auto_compact_ratio(self) -> "int | None":
        """The shards' shared auto-compaction divisor (see ``Engine``)."""
        return self._shards[0].auto_compact_ratio

    @auto_compact_ratio.setter
    @acquires("Engine._lock")
    def auto_compact_ratio(self, ratio: "int | None") -> None:
        with self._lock:
            for engine in self._shards:
                engine.auto_compact_ratio = ratio

    # -- persistence ----------------------------------------------------------
    def save(self, directory: "str | os.PathLike") -> None:
        """Persist one snapshot per shard plus a manifest into ``directory``.

        Each shard file is an ordinary engine snapshot of that shard's
        compiled graph and warm query cache; the manifest records the shard
        map spec, the shared label order, and per-shard sub-instance
        fingerprints so :meth:`open` can warm-start shards independently.
        The manifest is written last and records every shard file's digest
        trailer, so a save that was interrupted between two files is
        refused by :meth:`open` instead of mixing two generations of shards.
        """
        with self._lock:
            self.refresh()
            os.makedirs(directory, exist_ok=True)
            shard_entries = []
            for shard, engine in enumerate(self._shards):
                filename = f"shard-{shard:04d}.snap"
                path = os.path.join(directory, filename)
                engine.save(path)
                sub = self._subs[shard]
                shard_entries.append(
                    {
                        "file": filename,
                        "digest": stored_digest(path),
                        "fingerprint": sub.content_fingerprint(),
                        "objects": len(sub),
                        "edges": sub.edge_count(),
                    }
                )
            manifest = {
                "format_version": MANIFEST_FORMAT_VERSION,
                "shard_map": self._map.spec(),
                "shard_map_fingerprint": self._map.fingerprint(),
                "labels": list(self._labels),
                "instance_fingerprint": self._instance.content_fingerprint(),
                "shards": shard_entries,
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

        ``source`` is either an :class:`Instance` — partitioned and compiled
        from scratch — or a snapshot *directory* written by :meth:`save`.
        When opening a directory, ``instance`` optionally supplies the live
        instance: it is re-partitioned with the manifest's shard map and each
        shard's stored stamp is validated against its sub-instance, so **only
        stale shards recompile** while warm shards load from disk.  Without
        ``instance``, the global instance is reconstructed by merging the
        shard snapshots.
        """
        if isinstance(source, (str, os.PathLike)):
            return cls._open_directory(
                source,
                instance=instance,
                shards=shards,
                shard_map=shard_map,
                constraints=constraints,
                cost_model=cost_model,
                cache_capacity=cache_capacity,
                backend=backend,
                concurrency=concurrency,
            )
        if instance is not None:
            raise ReproError(
                "instance= is only meaningful when opening a snapshot directory"
            )
        return cls(
            source,
            shards=shards,
            shard_map=shard_map,
            constraints=constraints,
            cost_model=cost_model,
            cache_capacity=cache_capacity,
            backend=backend,
            concurrency=concurrency,
        )

    @classmethod
    def _open_directory(
        cls,
        directory: "str | os.PathLike",
        *,
        instance: "Instance | None",
        shards: "int | None",
        shard_map: "ShardMap | None",
        constraints: "ConstraintSet | None",
        cost_model: "CostModel | None",
        cache_capacity: int,
        backend: str,
        concurrency: "int | None",
    ) -> "ShardedEngine":
        manifest_path = os.path.join(os.fspath(directory), MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise ReproError(
                f"{os.fspath(directory)!r} is not a sharded snapshot "
                f"(no {MANIFEST_NAME})"
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
                return cls(
                    instance,
                    shard_map=shard_map,
                    constraints=constraints,
                    cost_model=cost_model,
                    cache_capacity=cache_capacity,
                    backend=backend,
                    concurrency=concurrency,
                )
            resolved_map = shard_map
        else:
            resolved_map = ShardMap.from_spec(manifest.get("shard_map", {}))
        if shards is not None and shards != resolved_map.num_shards:
            raise ReproError(
                f"snapshot directory holds {resolved_map.num_shards} shards; "
                f"shards={shards} contradicts it (omit shards= to reuse the "
                f"manifest, or rebuild from an instance)"
            )
        labels = [str(label) for label in manifest.get("labels", [])]
        entries = manifest.get("shards", [])
        files = [entry["file"] for entry in entries]
        if len(files) != resolved_map.num_shards:
            raise ReproError(
                f"manifest lists {len(files)} shard files for "
                f"{resolved_map.num_shards} shards"
            )
        for entry in entries:
            shard_path = os.path.join(os.fspath(directory), entry["file"])
            if stored_digest(shard_path) != entry.get("digest"):
                raise ReproError(
                    f"shard file {shard_path!r} is not the one its manifest "
                    f"records (damaged, or a save was interrupted); save the "
                    f"directory again"
                )
        # Shard engines are always constraint-free: the sharded session owns
        # the single pre-rewrite (see ``_prepared``).
        if instance is None:
            engines = [
                Engine.open(
                    os.path.join(os.fspath(directory), filename),
                    cache_capacity=cache_capacity,
                    backend=backend,
                    labels=labels,
                )
                for filename in files
            ]
            subs = [engine.instance for engine in engines]
            merged = Instance()
            for sub in subs:
                for oid in sub.objects:
                    merged.add_object(oid)
                for source, label, destination in sub.edges():
                    merged.add_edge(source, label, destination)
            live = merged
        else:
            # Labels the manifest has not seen join the shared order before
            # any shard is opened, so a stale shard's rebuild interns them
            # in that order rather than in the order its edges meet them.
            labels.extend(sorted(set(instance.labels()) - set(labels)))
            subs = partition_instance(instance, resolved_map)
            engines = [
                Engine.open(
                    os.path.join(os.fspath(directory), filename),
                    instance=sub,
                    cache_capacity=cache_capacity,
                    backend=backend,
                    labels=labels,
                )
                for filename, sub in zip(files, subs)
            ]
            live = instance
        return cls(
            live,
            shard_map=resolved_map,
            constraints=constraints,
            cost_model=cost_model,
            cache_capacity=cache_capacity,
            backend=backend,
            concurrency=concurrency,
            _restored=(subs, engines, labels),
        )
