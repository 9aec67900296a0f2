"""Label-partitioned CSR adjacency compiled from an :class:`Instance`.

The raw data model (:mod:`repro.graph.instance`) stores descriptions as
Python lists of ``(label, destination)`` pairs — flexible, but every BFS step
pays for hashing strings and boxing tuples.  The compiled form here stores,
*per label*, a classic compressed-sparse-row pair ``(indptr, targets)`` over
dense node ids, so that "successors of node v under label l" is one slice of
a flat integer array.  Partitioning by label matters for path queries: a DFA
state typically has live transitions on a small subset of the graph's labels,
and the per-label layout lets the executor skip every other edge without
even looking at it.

Incremental growth: edges added after compilation go to a small per-label
overflow adjacency that traversals consult alongside the CSR slices; once the
overflow exceeds a fraction of the graph the structure compacts itself back
into pure CSR.  Ids are append-only (see :mod:`repro.engine.interning`), so
compiled query tables survive edge adds that introduce no new labels.

Incremental shrinkage is symmetric: :meth:`CompiledGraph.remove_edge` marks
the edge's CSR position in a per-label *tombstone* set that every traversal
(and the numpy edge-array lowering) consults, so deletions are O(out-degree)
instead of a full rebuild.  Re-adding a tombstoned edge revives its CSR slot
in place; compaction folds overflow in and drops tombstones out, restoring
the pure-CSR invariant.

For the numpy kernel (:mod:`repro.engine.executor_np`) the adjacency is
additionally lowered, lazily, to a :class:`ProductCSR` per compiled query:
the adjacency of the DFA x graph product itself, which the batched kernel
pushes frontiers over.  A cached lowering outlives edits: every edge-set
change is journaled, and the next lookup patches the lowering with the
edits made since it was built instead of lowering the whole graph again,
so a read after an edit pays for what changed, not for the graph.  The
per-label flat ``(source, target)`` edge arrays (:class:`LabelEdges`) are
the intermediate of a cold build and have no other reader — no kernel
walks them.

The whole compiled state round-trips through :meth:`CompiledGraph.to_parts`
/ :meth:`CompiledGraph.from_parts` — the exchange format the snapshot file
(:mod:`repro.engine.snapshot`) serializes, tombstones and overflow included.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import OrderedDict
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator

from ..analysis.annotations import guarded_by
from ..exceptions import InstanceError
from ..graph.instance import Instance, Oid
from .interning import Interner
from .telemetry import current_span, witnessed_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

_EMPTY = array("q")
_EMPTY_DEAD: frozenset[int] = frozenset()


# Product lowerings kept at once: one per distinct transition structure
# served recently.  A serving session cycles through a handful of hot
# queries; anything colder re-lowers on demand.
_PRODUCT_CACHE_SIZE = 8

# The version of a journal entry ``(version, sign, source, label, target)``.
_VERSION = itemgetter(0)


class LabelEdges:
    """One label's live edges lowered to flat numpy ``src``/``dst`` arrays
    (CSR order, then overflow)."""

    __slots__ = ("src", "dst")

    def __init__(self, src: "numpy.ndarray", dst: "numpy.ndarray") -> None:
        self.src = src
        self.dst = dst


class ProductCSR:
    """The DFA x graph product's adjacency in compressed-sparse-row form.

    A product pair ``(state, node)`` has the flat key ``state * num_nodes +
    node``; ``dst[indptr[key]:indptr[key + 1]]`` are the keys of its
    successors — for every live move ``(label, next_state)`` of ``state``
    and every ``label`` edge ``node -> target``, the key ``next_state *
    num_nodes + target``.  One gather over the rows of a frontier therefore
    advances every state and label at once.  Both arrays are ``int32``
    whenever the key space and the edge count fit (``int64`` otherwise).
    """

    __slots__ = ("indptr", "dst")

    def __init__(self, indptr: "numpy.ndarray", dst: "numpy.ndarray") -> None:
        self.indptr = indptr
        self.dst = dst


def _product_dtype(size: int, total: int) -> type:
    """``int32`` whenever keys and edge slots fit: it halves both a
    resident lowering (a serving session keeps several) and the scratch
    arrays that make one."""
    import numpy as np

    return np.int32 if max(size, total) < 2**31 else np.int64


def _patch_product(product: ProductCSR, pending: list, moves, n: int) -> ProductCSR:
    """``product`` with the journaled edge changes ``pending`` applied, as a
    new lowering — ``product`` itself is never written.

    An edit ``±(source, label, target)`` changes, per move ``(label ->
    next)`` of a state ``s``, the product edge ``s·n + source -> next·n +
    target``.  The changes are netted as a multiset (two labels that move
    to one state give parallel product edges); one matching slot of its
    row is cut per removal, and each addition is spliced in at its row's
    end, so a patched row may list its targets in another order than a
    fresh build — the kernel groups by target, so nothing it reports
    differs.  The work is a few dict and list steps per journaled edit
    (less than the ``add_edge``/``remove_edge`` call that journaled it)
    plus one pass over each array, whose dtype follows the build's rule.
    """
    import numpy as np

    indptr, dst = product.indptr, product.dst
    size = indptr.size - 1
    bases: "dict[int, list[tuple[int, int]]]" = {}
    for state, row in enumerate(moves):
        for label, next_state in row:
            bases.setdefault(label, []).append((state * n, next_state * n))
    net: "dict[tuple[int, int], int]" = {}
    for _version, sign, source, label, target in pending:
        for row_base, target_base in bases.get(label, ()):
            edge = (row_base + source, target_base + target)
            net[edge] = net.get(edge, 0) + sign
    changes = sorted(item for item in net.items() if item[1])
    if not changes:
        return product
    pieces = []  # the new ``dst``: runs of old slots, and added targets
    cut = 0  # old slots before this are placed
    rows = []  # each changed row, ascending ...
    shifts = [0]  # ... and the running net count through it
    for row, group in groupby(changes, key=lambda change: change[0][0]):
        start, stop = int(indptr[row]), int(indptr[row + 1])
        slots = dst[start:stop].tolist()
        removed = []
        added = []
        for (_row, target), count in group:
            position = -1
            for _ in range(-count):
                position = slots.index(target, position + 1)
                removed.append(start + position)
            added.extend([target] * count)
        for position in sorted(removed):
            pieces.append(dst[cut:position])
            cut = position + 1
        if added:
            pieces.append(dst[cut:stop])
            pieces.append(np.array(added, dtype=dst.dtype))
            cut = stop
        rows.append(row)
        shifts.append(shifts[-1] + len(added) - len(removed))
    pieces.append(dst[cut:])
    dtype = _product_dtype(size, dst.size + shifts[-1])
    # Every offset past a changed row moves by the running net count: one
    # value per step between changed rows, repeated out into the new
    # indptr (the only size-long array made) and added to the old one.
    steps = np.diff([0, *(row + 1 for row in rows), size + 1])
    new_indptr = np.repeat(np.array(shifts, dtype=dtype), steps)
    new_indptr += indptr
    return ProductCSR(new_indptr, np.concatenate(pieces).astype(dtype, copy=False))


class CompiledGraph:
    """A finite instance compiled to per-label CSR over dense integer ids."""

    # The lazy numpy lowering cache is the only state of this class touched
    # from concurrent reader threads; everything else is the caller's to
    # serialize (see ``Engine._run_lock``).
    GUARDED_BY = {
        "_np_version": "_np_lock",
        "_np_edges": "_np_lock",
        "_np_products": "_np_lock",
        "_np_journal": "_np_lock",
        "_np_counts": "_np_lock",
    }

    __slots__ = (
        "nodes",
        "labels",
        "_indptr",
        "_targets",
        "_csr_nodes",
        "_overflow",
        "_overflow_edges",
        "_edge_set",
        "_dead",
        "_dead_edges",
        "_np_version",
        "_np_edges",
        "_np_products",
        "_np_journal",
        "_np_counts",
        "_np_lock",
        "auto_compact_ratio",
        "version",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.nodes: Interner[Oid] = Interner()
        self.labels: Interner[str] = Interner()
        # Per label id: CSR row pointers (length _csr_nodes + 1) and targets.
        self._indptr: list[array] = []
        self._targets: list[array] = []
        # Number of nodes covered by the CSR arrays; nodes interned later are
        # reachable only through the overflow until the next compaction.
        self._csr_nodes = 0
        # Per label id: {source node -> [target nodes]} for post-build adds.
        self._overflow: list[dict[int, list[int]]] = []
        self._overflow_edges = 0
        # ``None`` after a build or a snapshot restore: the set is fully
        # derivable from CSR − tombstones + overflow, and a read-only serving
        # session never needs it (one boxed triple per edge — the largest
        # structure a compiled graph would otherwise hold), so
        # materialization is deferred to first use (mutation, edge_count,
        # iter_edges) — see :meth:`_edges`.
        self._edge_set: "set[tuple[int, int, int]] | None" = set()
        # Per label id: CSR positions of incrementally removed edges.
        self._dead: list[set[int]] = []
        self._dead_edges = 0
        # Lazily built numpy lowerings.  The per-label edge arrays are valid
        # only for _np_version.  The product CSRs, a small LRU keyed by move
        # table, each carry the version and node count they reflect
        # (``ensure_nodes`` grows the id space without a version bump, and
        # flat product keys depend on it); the journal holds one ``(version,
        # ±1, source, label, target)`` entry per edge-set change newer than
        # the oldest of them, which is what brings one forward (see
        # :meth:`numpy_product_csr`).  The lock keeps the build-and-cache
        # step safe under concurrent *reads* (the serving layer runs
        # per-shard supersteps and admission-queue flushes on threads);
        # mutation is still the caller's to serialize.
        self._np_version = -1
        self._np_edges: list["LabelEdges | None"] = []
        self._np_products: "OrderedDict[tuple, tuple[int, int, ProductCSR]]" = (
            OrderedDict()
        )
        self._np_journal: "list[tuple[int, int, int, int, int]]" = []
        self._np_counts = {"built": 0, "patched": 0, "hit": 0}
        self._np_lock = witnessed_lock("CompiledGraph._np_lock")
        # Auto-compaction fires when overflow edges (on add) or tombstones
        # (on remove) outgrow ``max(64, edge_count // auto_compact_ratio)``
        # — the smaller the ratio, the lazier the graph.  ``None`` disables
        # auto-compaction entirely (callers then drive :meth:`compact`
        # explicitly, e.g. through ``Engine.compact_now``).  A runtime
        # tuning knob, deliberately not persisted in snapshots.
        self.auto_compact_ratio: "int | None" = 4
        self.version = 0

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_instance(
        cls,
        instance: Instance,
        *,
        nodes: "Iterable[Oid] | None" = None,
        labels: "Iterable[str] | None" = None,
    ) -> "CompiledGraph":
        """Compile ``instance`` into a fresh CSR graph.

        Node ids are assigned in a deterministic order (sorted by ``repr`` of
        the oid, matching :meth:`Instance.edges`) so that repeated builds of
        the same instance produce identical compiled graphs.

        ``nodes`` restricts the build to a *subset* of the instance: only the
        given nodes' descriptions (their outgoing edges) are compiled, which
        is how the sharded engine (:mod:`repro.engine.sharding`) builds one
        graph per shard.  Edge targets outside the subset are still interned
        — they are the shard's *ghost* nodes, reachable but never expanded
        locally — after every owned node, so owned ids form a dense prefix of
        the subset's sort order.

        ``labels`` pre-interns a label order before any edge is scanned.
        Shards compiled against the same seed share one label-id universe
        (and therefore one transition-table fingerprint), even when a label
        has no edges on some shard — without the seed, per-shard lowering
        would prune DFA states whose continuation labels only exist on
        *other* shards.
        """
        graph = cls()
        if labels is not None:
            for label in labels:
                graph.labels.intern(label)
        if nodes is None:
            for oid in sorted(instance.objects, key=repr):
                graph.nodes.intern(oid)
            edges: "Iterable[tuple[Oid, str, Oid]]" = instance.edges()
        else:
            owned = sorted(set(nodes), key=repr)
            for oid in owned:
                graph.nodes.intern(oid)
            edges = sorted(
                (
                    (source, label, destination)
                    for source in owned
                    for label, destination in instance.out_edges(source)
                ),
                key=repr,
            )
        buckets: dict[int, list[tuple[int, int]]] = {}
        for source, label, destination in edges:
            sid = graph.nodes.intern(source)
            did = graph.nodes.intern(destination)
            lid = graph.labels.intern(label)
            buckets.setdefault(lid, []).append((sid, did))
        # An Instance's edges are a set already: nothing to deduplicate, so
        # the edge set stays unmaterialized (see ``__init__``).
        graph._edge_set = None
        graph._build_csr(buckets)
        return graph

    def ensure_label(self, label: str) -> bool:
        """Intern ``label`` with an (empty) adjacency, without touching edges.

        Used by the sharded engine to keep every shard's label universe equal
        to the global one: when an incremental edge add introduces a new
        label on one shard, the others learn the label through this method.
        The mutation ``version`` is deliberately not bumped — no edge moved —
        but the label-interner fingerprint changes, so compiled transition
        tables for the old universe miss the cache and recompile (they must:
        their column count is the label count).  Returns ``True`` when the
        label was new.
        """
        if not isinstance(label, str) or not label:
            raise InstanceError("edge labels must be non-empty strings")
        if label in self.labels:
            return False
        lid = self.labels.intern(label)
        while len(self._overflow) <= lid:
            self._indptr.append(_EMPTY)
            self._targets.append(_EMPTY)
            self._overflow.append({})
            self._dead.append(set())
        return True

    def _build_csr(self, buckets: dict[int, list[tuple[int, int]]]) -> None:
        n = len(self.nodes)
        self._csr_nodes = n
        self._indptr = []
        self._targets = []
        self._overflow = []
        self._overflow_edges = 0
        self._dead = []
        self._dead_edges = 0
        for lid in range(len(self.labels)):
            # Sorting by (source, target) makes each source's target run
            # ascending: traversals walk monotone node ids (cache- and
            # branch-friendly), the numpy lowering's gather reads dense
            # arrays in near-sequential order, and rebuilds of the same
            # edge set are bit-identical regardless of set-iteration order.
            edges = sorted(buckets.get(lid, ()))
            counts = [0] * (n + 1)
            for sid, _ in edges:
                counts[sid + 1] += 1
            for i in range(1, n + 1):
                counts[i] += counts[i - 1]
            targets = array("q", bytes(8 * len(edges)))
            cursor = counts[:]
            for sid, did in edges:
                targets[cursor[sid]] = did
                cursor[sid] += 1
            self._indptr.append(array("q", counts))
            self._targets.append(targets)
            self._overflow.append({})
            self._dead.append(set())
        self.version += 1

    def add_edge(self, source: Oid, label: str, destination: Oid) -> None:
        """Incrementally register one edge without rebuilding the CSR.

        New labels and new nodes are interned on the fly; the edge lands in
        the overflow adjacency, and the graph compacts itself once the
        overflow grows past a quarter of the compiled edges.
        """
        if not isinstance(label, str) or not label:
            raise InstanceError("edge labels must be non-empty strings")
        sid = self.nodes.intern(source)
        did = self.nodes.intern(destination)
        lid = self.labels.intern(label)
        while len(self._overflow) <= lid:
            self._indptr.append(_EMPTY)
            self._targets.append(_EMPTY)
            self._overflow.append({})
            self._dead.append(set())
        key = (sid, lid, did)
        edges = self._edges()
        if key in edges:
            return
        edges.add(key)
        self._bump(1, sid, lid, did)
        # Re-adding a removed edge whose CSR slot is tombstoned revives the
        # slot in place instead of duplicating the edge into the overflow.
        position = self._dead_csr_position(sid, lid, did)
        if position is not None:
            self._dead[lid].discard(position)
            self._dead_edges -= 1
            return
        self._overflow[lid].setdefault(sid, []).append(did)
        self._overflow_edges += 1
        self._maybe_auto_compact(self._overflow_edges)

    def remove_edge(self, source: Oid, label: str, destination: Oid) -> None:
        """Incrementally delete one edge without rebuilding the CSR.

        Overflow edges are dropped directly; compiled edges get their CSR
        position tombstoned, which every traversal (and the numpy lowering)
        skips.  Once tombstones outnumber a quarter of the live edges the
        graph compacts itself and the dead slots are physically dropped.
        """
        sid = self.nodes.id_of(source)
        did = self.nodes.id_of(destination)
        lid = self.labels.id_of(label)
        key = (sid, lid, did)
        if sid is None or did is None or lid is None or key not in self._edges():
            raise InstanceError(f"edge {(source, label, destination)!r} not present")
        self._edges().remove(key)
        self._bump(-1, sid, lid, did)
        extra = self._overflow[lid].get(sid)
        if extra is not None and did in extra:
            extra.remove(did)
            if not extra:
                del self._overflow[lid][sid]
            self._overflow_edges -= 1
            return
        position = self._live_csr_position(sid, lid, did)
        if position is None:  # pragma: no cover - _edge_set guarantees presence
            raise InstanceError(f"edge {(source, label, destination)!r} not compiled")
        self._dead[lid].add(position)
        self._dead_edges += 1
        self._maybe_auto_compact(self._dead_edges)

    def _bump(self, sign: int, sid: int, lid: int, did: int) -> None:
        """One edge-set change: a new version, journaled (under the lock,
        with the bump) while any product lowering is cached to patch."""
        with self._np_lock:
            self.version += 1
            if self._np_products:
                self._np_journal.append((self.version, sign, sid, lid, did))
                self._np_trim()

    def _csr_positions(self, sid: int, lid: int, did: int) -> Iterator[int]:
        indptr = self._indptr[lid]
        if sid + 1 < len(indptr):
            targets = self._targets[lid]
            for position in range(indptr[sid], indptr[sid + 1]):
                if targets[position] == did:
                    yield position

    def _live_csr_position(self, sid: int, lid: int, did: int) -> int | None:
        dead = self._dead[lid]
        for position in self._csr_positions(sid, lid, did):
            if position not in dead:
                return position
        return None

    def _dead_csr_position(self, sid: int, lid: int, did: int) -> int | None:
        dead = self._dead[lid]
        if not dead:
            return None
        for position in self._csr_positions(sid, lid, did):
            if position in dead:
                return position
        return None

    def _maybe_auto_compact(self, pending: int) -> None:
        ratio = self.auto_compact_ratio
        if ratio is not None and pending > max(64, self.edge_count() // ratio):
            self.compact()

    def compact(self) -> None:
        """Fold overflow edges in and tombstoned edges out of the CSR arrays.

        Compaction is where the cache tuning happens: tombstone masks are
        fused away (the rebuilt dense arrays contain live edges only, so
        neither the scalar traversals nor the numpy lowering filter
        anything afterwards) and every source's target run comes out
        sorted (see :meth:`_build_csr`).  The edge multiset is unchanged,
        so cached product lowerings stay valid: the version bump journals
        nothing.  A no-op when the graph is already fully dense.
        """
        if (
            not self._overflow_edges
            and not self._dead_edges
            and self._csr_nodes == len(self.nodes)
        ):
            return
        buckets: dict[int, list[tuple[int, int]]] = {}
        for sid, lid, did in self._edges():
            buckets.setdefault(lid, []).append((sid, did))
        self._build_csr(buckets)

    # -- shape ----------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    def labels_fingerprint(self) -> tuple[str, ...]:
        """The id-ordered label tuple; equal fingerprints mean compiled
        transition tables (whose columns are label ids) are interchangeable."""
        return self.labels.fingerprint()

    def label_edge_counts(self) -> dict[str, int]:
        """Live edge count per label: CSR minus tombstones plus overflow.

        O(labels + overflow buckets), no edge-set materialization — this is
        the degree-statistics feed for the CRPQ join planner
        (:func:`repro.optimize.cost.estimate_cardinality`), so it must stay
        cheap enough to call per query.  Caller is responsible for
        serializing against mutation, like every other bulk reader.
        """
        counts: dict[str, int] = {}
        for label_id, label in enumerate(self.labels.fingerprint()):
            live = len(self._targets[label_id]) - len(self._dead[label_id])
            live += sum(
                len(targets) for targets in self._overflow[label_id].values()
            )
            counts[label] = live
        return counts

    def ensure_nodes(self, oids: Iterable[Oid]) -> int:
        """Intern any not-yet-known oids, in sorted-by-``repr`` order.

        This is the cheap path for instance mutations that only grow the
        object set (``Instance.add_object`` of isolated nodes): ids are
        append-only and no edge moves, so the CSR arrays, the tombstones,
        the numpy label-edge arrays and every compiled query table stay
        valid — ``version`` is deliberately *not* bumped.  (A product
        lowering's flat keys follow the node count, so its next lookup
        rebuilds it.)  Returns the number of newly interned nodes.
        """
        nodes = self.nodes
        fresh = [oid for oid in oids if oid not in nodes]
        for oid in sorted(fresh, key=repr):
            nodes.intern(oid)
        return len(fresh)

    def _edges(self) -> set[tuple[int, int, int]]:
        """The live ``(source, label, target)`` id triples, derived lazily.

        After :meth:`from_parts` the set starts unmaterialized; the first
        accessor re-derives it by scanning the CSR arrays (skipping
        tombstoned positions) and the overflow adjacency — exactly the edge
        set every traversal sees.
        """
        if self._edge_set is None:
            edges: set[tuple[int, int, int]] = set()
            for lid in range(len(self.labels)):
                indptr = self._indptr[lid]
                targets = self._targets[lid]
                dead = self._dead[lid]
                for sid in range(len(indptr) - 1):
                    for position in range(indptr[sid], indptr[sid + 1]):
                        if position not in dead:
                            edges.add((sid, lid, targets[position]))
                for sid, destinations in self._overflow[lid].items():
                    for did in destinations:
                        edges.add((sid, lid, did))
            self._edge_set = edges
        return self._edge_set

    def edge_count(self) -> int:
        return len(self._edges())

    def overflow_edge_count(self) -> int:
        return self._overflow_edges

    def tombstone_count(self) -> int:
        return self._dead_edges

    # -- traversal ------------------------------------------------------------
    def successors(self, node: int, label_id: int) -> Iterator[int]:
        """Targets of ``node`` under ``label_id`` (CSR slice + overflow)."""
        indptr = self._indptr[label_id]
        if node + 1 < len(indptr):
            targets = self._targets[label_id]
            dead = self._dead[label_id]
            if dead:
                for position in range(indptr[node], indptr[node + 1]):
                    if position not in dead:
                        yield targets[position]
            else:
                yield from targets[indptr[node] : indptr[node + 1]]
        extra = self._overflow[label_id].get(node)
        if extra is not None:
            yield from extra

    def successor_slice(self, node: int, label_id: int) -> "tuple[array | list[int], int, int]":
        """CSR bounds for hot loops: ``(buffer, start, stop)``.

        Callers materialize ``buffer[start:stop]`` and iterate the copy
        (fastest in CPython for the short runs typical of small out-degrees).
        Overflow edges for the node, if any, must be fetched separately with
        :meth:`overflow_successors`, and positions in
        :meth:`dead_positions` must be skipped when the set is non-empty.
        """
        indptr = self._indptr[label_id]
        if node + 1 < len(indptr):
            return self._targets[label_id], indptr[node], indptr[node + 1]
        return _EMPTY, 0, 0

    def overflow_successors(self, node: int, label_id: int) -> "list[int] | None":
        return self._overflow[label_id].get(node)

    def has_overflow(self, label_id: int) -> bool:
        return bool(self._overflow[label_id])

    def dead_positions(self, label_id: int) -> "set[int] | frozenset[int]":
        """Tombstoned CSR positions of a label; executors must skip these."""
        if not self._dead_edges:
            return _EMPTY_DEAD
        return self._dead[label_id]

    # -- numpy lowering -------------------------------------------------------
    @guarded_by("_np_lock")
    def _np_sync(self) -> int:
        """Drop the per-label edge arrays of an older version; returns the
        version a caller about to build is building for."""
        if self._np_version != self.version:
            self._np_edges = []
            self._np_version = self.version
        if len(self._np_edges) < len(self._overflow):
            self._np_edges.extend(
                [None] * (len(self._overflow) - len(self._np_edges))
            )
        return self.version

    @guarded_by("_np_lock")
    def _np_current(self, built_for: int) -> bool:
        """Whether a lowering built or patched for ``built_for`` may be
        cached.

        Two readers may race on the same first use; both lower the
        identical edge set, so the second write is a harmless no-op —
        unless a mutation slipped in since ``built_for`` was read, in which
        case the arrays are (or may be) stale and must not be cached.  Both
        sides of the check compare against the version the *builder* saw:
        comparing ``_np_version`` to the live ``self.version`` alone would
        readmit stale arrays whenever a concurrent reader already reset the
        cache for the new version (ABA).
        """
        return self._np_version == built_for and self.version == built_for

    @guarded_by("_np_lock")
    def _np_trim(self) -> None:
        """Keep the journal to what a cached product lowering still needs.

        The oldest lowering is dropped while its pending edits outnumber
        its own edges (its next lookup would rebuild it anyway, so keeping
        it would only grow the journal); then every entry at or below the
        oldest remaining version goes.  Nothing cached, nothing journaled.
        """
        products, journal = self._np_products, self._np_journal
        while products:
            key, (version, _nodes, product) = min(
                products.items(), key=lambda item: item[1][0]
            )
            done = bisect_right(journal, version, key=_VERSION)
            if len(journal) - done <= product.dst.size:
                del journal[:done]
                return
            del products[key]
        journal.clear()

    def lowering_counts(self) -> dict[str, int]:
        """Product-lowering lookups so far, by outcome: ``built`` (lowered
        from the edge arrays), ``patched`` (an older lowering brought up to
        date with the journal) and ``hit`` (already current)."""
        with self._np_lock:
            return dict(self._np_counts)

    def numpy_label_edges(self, label_id: int) -> LabelEdges:
        """One label's live edges as flat numpy arrays, cached per version.

        The arrays merge the CSR slice (minus tombstones) with the overflow
        adjacency, so the product lowering built from them
        (:meth:`numpy_product_csr`, their one reader) sees exactly the edge
        set the scalar traversals see.  The cache is invalidated by any
        mutation (``version`` bump) and rebuilt lazily, one label at a time.
        """
        import numpy as np

        with self._np_lock:
            built_for = self._np_sync()
            cached = self._np_edges[label_id]
        if cached is not None:
            return cached
        indptr = np.frombuffer(self._indptr[label_id], dtype=np.int64)
        targets = np.frombuffer(self._targets[label_id], dtype=np.int64)
        if indptr.size:
            src = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
        else:
            src = np.empty(0, dtype=np.int64)
        dst = targets
        dead = self._dead[label_id]
        if dead:
            live = np.ones(dst.size, dtype=bool)
            live[np.fromiter(dead, dtype=np.int64, count=len(dead))] = False
            src, dst = src[live], dst[live]
        overflow = self._overflow[label_id]
        if overflow:
            extra_src = []
            extra_dst = []
            for source, destinations in overflow.items():
                extra_src.extend([source] * len(destinations))
                extra_dst.extend(destinations)
            src = np.concatenate([src, np.asarray(extra_src, dtype=np.int64)])
            dst = np.concatenate([dst, np.asarray(extra_dst, dtype=np.int64)])
        edges = LabelEdges(src, dst)
        with self._np_lock:
            if self._np_current(built_for):
                self._np_edges[label_id] = edges
        return edges

    def numpy_product_csr(
        self, moves: "tuple[tuple[tuple[int, int], ...], ...]"
    ) -> ProductCSR:
        """The product adjacency of a compiled query's ``moves`` over the
        live edges, from a small LRU that survives edits.

        Keyed by the (hashable) move table itself, never by query identity:
        two compiled queries with equal transition structure share one
        lowering, and a recycled object id can never serve another query's
        product.  A cached lowering is a ``hit`` when it is current.  One
        made at an older version is ``patched``: the edits journaled since
        are applied to a new lowering, never to the cached one, which a
        kernel on another thread may be reading (see
        :func:`_patch_product`).  It is ``built`` from
        :meth:`numpy_label_edges` — CSR − tombstones + overflow, exactly as
        the scalar traversals see it — when nothing is cached, when the
        node count changed since, or when its pending edits outnumber its
        own edges.  The outcome is counted (:meth:`lowering_counts`) and
        set as ``lowering`` on the span the lookup runs under.
        """
        n = len(self.nodes)
        pending = None
        with self._np_lock:
            built_for = self._np_sync()
            entry = self._np_products.get(moves)
            if entry is not None:
                self._np_products.move_to_end(moves)
                version, nodes, product = entry
                if nodes == n:
                    journal = self._np_journal
                    pending = journal[bisect_right(journal, version, key=_VERSION):]
                    if len(pending) > product.dst.size:
                        pending = None
            how = "built" if pending is None else "patched" if pending else "hit"
            self._np_counts[how] += 1
        current_span().set(lowering=how)
        if how == "hit":
            if version == built_for:
                return product
            # Only compactions since: the same edges, stamped current below.
        elif how == "patched":
            product = _patch_product(product, pending, moves, n)
        else:
            product = self._lower_product(moves, n)
        with self._np_lock:
            if self._np_current(built_for):
                self._np_products[moves] = (built_for, n, product)
                while len(self._np_products) > _PRODUCT_CACHE_SIZE:
                    self._np_products.popitem(last=False)
                self._np_trim()
        return product

    def _lower_product(self, moves, n: int) -> ProductCSR:
        """A cold build of the product lowering from the label edge arrays."""
        import numpy as np

        blocks = [
            (self.numpy_label_edges(label_id), state * n, next_state * n)
            for state, row in enumerate(moves)
            for label_id, next_state in row
        ]
        size = len(moves) * n
        total = sum(edges.src.size for edges, _, _ in blocks)
        dtype = _product_dtype(size, total)
        src = np.empty(total, dtype=dtype)
        dst = np.empty(total, dtype=dtype)
        filled = 0
        for edges, src_base, dst_base in blocks:
            stop = filled + edges.src.size
            np.add(edges.src, src_base, out=src[filled:stop], casting="unsafe")
            np.add(edges.dst, dst_base, out=dst[filled:stop], casting="unsafe")
            filled = stop
        # Each label block arrives sorted by source already (CSR order), so
        # the stable sort mostly merges runs.
        dst = dst[np.argsort(src, kind="stable")]
        indptr = np.zeros(size + 1, dtype=dtype)
        np.cumsum(np.bincount(src, minlength=size), out=indptr[1:])
        return ProductCSR(indptr, dst)

    def out_edges(self, node: int) -> Iterator[tuple[int, int]]:
        """All ``(label_id, target)`` pairs of one node (any label)."""
        for lid in range(len(self.labels)):
            for target in self.successors(node, lid):
                yield (lid, target)

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """All compiled edges as ``(source, label_id, target)`` triples."""
        return iter(self._edges())

    # -- persistence ----------------------------------------------------------
    def to_parts(self) -> dict:
        """The complete compiled state as plain containers, for snapshots.

        Everything :meth:`from_parts` needs to rebuild an identical graph:
        both interner value lists, the per-label CSR pairs, the overflow
        adjacency, the tombstone sets, ``_csr_nodes`` and the mutation
        ``version``.  ``_edge_set`` is *not* included — it is derivable from
        CSR minus tombstones plus overflow, and re-deriving it on load is
        cheaper than shipping every triple twice.
        """
        return {
            "nodes": list(self.nodes.backing_list()),
            "labels": list(self.labels.backing_list()),
            "csr_nodes": self._csr_nodes,
            "indptr": list(self._indptr),
            "targets": list(self._targets),
            "overflow": [
                {source: list(targets) for source, targets in of.items()}
                for of in self._overflow
            ],
            "dead": [set(dead) for dead in self._dead],
            "version": self.version,
        }

    @classmethod
    def from_parts(
        cls,
        *,
        nodes: "list[Oid]",
        labels: "list[str]",
        csr_nodes: int,
        indptr: "list[array]",
        targets: "list[array]",
        overflow: "list[dict[int, list[int]]]",
        dead: "list[set[int]]",
        version: int,
    ) -> "CompiledGraph":
        """Rebuild a compiled graph from :meth:`to_parts` output.

        The edge set is left unmaterialized (lazily re-derived from CSR −
        tombstones + overflow on first use), which keeps restoring a
        snapshot O(arrays): a session that only serves queries never pays
        the O(E) scan, while incremental ``add_edge``/``remove_edge`` work
        exactly like on the graph that was saved.
        """
        graph = cls()
        graph.nodes = Interner(nodes)
        graph.labels = Interner(labels)
        graph._csr_nodes = csr_nodes
        graph._indptr = list(indptr)
        graph._targets = list(targets)
        graph._overflow = [
            {source: list(targets) for source, targets in of.items()}
            for of in overflow
        ]
        graph._dead = [set(positions) for positions in dead]
        graph._overflow_edges = sum(
            len(destinations) for of in graph._overflow for destinations in of.values()
        )
        graph._dead_edges = sum(len(positions) for positions in graph._dead)
        graph.version = version
        graph._edge_set = None
        return graph

    # -- translation ----------------------------------------------------------
    def node_id(self, oid: Oid) -> int | None:
        return self.nodes.id_of(oid)

    def oid_of(self, node: int) -> Oid:
        return self.nodes.value_of(node)

    def oids_of(self, node_ids: Iterable[int]) -> set[Oid]:
        values = self.nodes.backing_list()
        return {values[node] for node in node_ids}

    def label_id(self, label: str) -> int | None:
        return self.labels.id_of(label)

    def __repr__(self) -> str:
        return (
            f"CompiledGraph(nodes={self.num_nodes}, labels={self.num_labels}, "
            f"edges={self.edge_count()}, overflow={self._overflow_edges}, "
            f"tombstones={self._dead_edges})"
        )
