"""Sharded compiled serving: one :class:`CompiledGraph` per site group.

The paper's Section 3 evaluates path queries over a *distributed* instance —
every object is a site that only knows its own outgoing links, and sites
exchange subquery messages until the whole query is answered.
:mod:`repro.distributed` reproduces that protocol message-for-message over
the slow baseline evaluator; this module is its compiled, batched analogue:

* a pluggable :class:`ShardMap` assigns every object (site) to one shard —
  stable hashing by oid (:class:`HashShardMap`, the default), an explicit
  assignment (:class:`ExplicitShardMap`), or one shard per site
  (:meth:`ShardMap.by_site`, the 1:1 image of the distributed site model);
* each shard compiles *its own nodes' descriptions* into a private
  :class:`CompiledGraph` (wrapped in a full :class:`Engine` session, so the
  per-shard query caches, staleness stamps and snapshots all come for free).
  Edge targets owned by other shards are interned locally as **ghost**
  nodes: reachable, never expanded;
* a query runs as **supersteps**: every active shard runs the ordinary
  :func:`~repro.engine.executor.run_batch` executor once, to a local
  fixpoint, then the ``(state, node)`` facts that landed on ghost nodes
  are scattered to the owning shards — the compiled analogue of the
  paper's ``subquery`` messages — and imported there as the next
  superstep's seed frontier.
  Rounds repeat until no shard produces a fact the owner has not absorbed.
  Re-imports are *semi-naive*: previously derived facts are pre-loaded into
  the executor as ``known`` masks, so a superstep only expands genuinely
  new information instead of re-flooding the shard.  The exchange itself
  is the kernel's frontier class's to do (``source_seeds``, ``exports``,
  ``route``, ``assemble``): on the numpy kernel a fact travels from one
  shard's tensor to its owner's as a flat key and a uint64 row, never as a
  Python object, so a superstep costs what it exchanges;
* every shard graph is built against the **shared global label universe**
  (one live label list passed to all shard engines), because shard-local
  DFA lowering would prune states whose continuation labels only occur on
  other shards.

Answers are gathered from the accepting-state facts of each shard's *owned*
nodes, once per evaluation over all shards; a fact derived at a ghost node
always reaches its owner (it is either exported, or the owner had already
absorbed it), so nothing is lost.

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
from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..analysis.annotations import acquires, guarded_by
from ..exceptions import ReproError
from ..graph.instance import Instance, Oid
from ..query.evaluation import EvaluationResult
from .compiled_query import query_key
from .csr import CompiledGraph
from ..optimize.cost import DegreeStats
from .executor import frontier_class, resolve_backend, run_batch
from .executor_py import PyFrontier
from .session import Engine, Session, _SessionStats
from .snapshot import stored_digest, write_replacing
from .telemetry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..constraints.constraint import ConstraintSet
    from ..optimize.cost import CostModel
    from .compiled_query import CompiledQuery
    from .serving import SuperstepScheduler

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
        ``repr`` for a deterministic numbering), so the superstep exchange
        carries exactly the cross-site frontier the distributed protocol
        would ship as subquery messages.
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


def shard_graph(
    instance: Instance,
    shard_map: ShardMap,
    shard: int,
    *,
    labels: "Sequence[str] | None" = None,
) -> CompiledGraph:
    """Compile one shard's subgraph straight from the global instance.

    A convenience over ``CompiledGraph.from_instance(instance, nodes=owned)``
    for callers that want a standalone partition CSR without a session; the
    result is structurally identical to compiling the shard's sub-instance.
    """
    owned = [oid for oid in instance.objects if shard_map.shard_of(oid) == shard]
    return CompiledGraph.from_instance(instance, nodes=owned, labels=labels)


@dataclass
class SuperstepCounters:
    """One evaluation's superstep fixpoint, in isolation.

    The cumulative :class:`ShardedStats` counters keep growing across a
    session's lifetime; this per-evaluation view (``ShardedStats.last_run``)
    is what callers should read to understand a *single* scatter-gather
    fixpoint — e.g. how many rounds it took and how much frontier it shipped.
    """

    supersteps: int = 0
    local_runs: int = 0
    exchanged_facts: int = 0


@dataclass
class ShardedStats(_SessionStats):
    """Counters accumulated across the lifetime of one sharded session.

    Two backend tallies exist because superstep re-seeding makes "a run"
    ambiguous: ``backend_runs`` counts every *local* executor run (a shard
    re-seeded across K supersteps of one evaluation counts K times — the
    honest cost measure), while ``backend_evaluations`` counts each *logical
    evaluation* once, which is the number comparable 1:1 with the monolithic
    :attr:`~repro.engine.session.EngineStats.backend_runs`.  Earlier
    versions funnelled every re-seeded run into the shard engines' own
    counters, silently inflating them relative to the monolithic engine;
    per-superstep accounting now lives here, and ``last_run`` holds the most
    recent evaluation's :class:`SuperstepCounters` in isolation.
    """

    supersteps: int = 0
    local_runs: int = 0
    exchanged_facts: int = 0
    visited_objects: int = 0
    # Always 0; kept only because the e2e benchmark's ``--trace 1`` reads it.
    steal_events: int = 0
    # max/mean per-step wall time of the most recent multi-step superstep:
    # 1.0 means perfectly balanced shards, >>1 means one shard held the
    # barrier while the others idled.
    superstep_skew_ratio: float = 1.0
    # One count per logical evaluation — the monolithic-comparable tally.
    backend_evaluations: dict[str, int] = field(default_factory=dict)
    # The most recent evaluation's superstep counters, reset per evaluation.
    last_run: SuperstepCounters = field(default_factory=SuperstepCounters)

    def record_local_runs(self, backend: str, count: int) -> None:
        self.local_runs += count
        self.backend_runs[backend] = self.backend_runs.get(backend, 0) + count

    def record_evaluation(self, backend: str) -> None:
        self.backend_evaluations[backend] = (
            self.backend_evaluations.get(backend, 0) + 1
        )

    _GAUGES = _SessionStats._GAUGES + (
        ("supersteps", "bulk-synchronous superstep rounds"),
        ("local_runs", "per-shard local executor runs"),
        ("exchanged_facts", "cross-shard frontier facts shipped at barriers"),
        ("visited_objects", "objects visited across shards"),
    )
    _BACKEND_RUNS_HELP = "local executor runs per backend (superstep re-seeds count)"

    def register(self, registry: MetricsRegistry, prefix: str) -> None:
        """The shared gauges plus the per-evaluation and skew views.

        The ``last_run`` gauges read the most recently *published*
        evaluation (see :meth:`ShardedEngine._evaluate` — the reference is
        swapped atomically, never mutated in place), so a scrape racing an
        evaluation sees a consistent triple.
        """
        super().register(registry, prefix)
        registry.gauge(
            f"{prefix}_backend_evaluations",
            "logical evaluations per backend (monolithic-comparable)",
            lambda: dict(self.backend_evaluations),
            labelnames=("backend",),
        )
        for attr in ("supersteps", "local_runs", "exchanged_facts"):
            registry.gauge(
                f"{prefix}_last_run_{attr}",
                f"{attr} of the most recent evaluation, in isolation",
                lambda a=attr: getattr(self.last_run, a),
            )
        registry.gauge(
            f"{prefix}_superstep_skew_ratio",
            "max/mean per-step wall time of the most recent multi-step superstep",
            lambda: self.superstep_skew_ratio,
        )

    def summary(self, engine: "ShardedEngine") -> str:
        backends = (
            ", ".join(
                f"{name}={self.backend_evaluations.get(name, 0)}"
                f"/{count} runs"
                for name, count in sorted(self.backend_runs.items())
            )
            or "none"
        )
        # One reference read: ``last_run`` is swapped atomically per
        # evaluation (never reset in place), so the triple below is always
        # one completed evaluation's, even with an evaluation mid-flight.
        last = self.last_run
        return (
            f"shards: {engine.num_shards} "
            f"({engine.warm_shards} warm-started, {engine.rebuilt_shards} rebuilt); "
            f"evaluations: {self.single_evaluations} single, "
            f"{self.batch_evaluations} batched ({self.batched_sources} sources); "
            f"supersteps: {self.supersteps} ({self.local_runs} local runs, "
            f"{self.exchanged_facts} cross-shard frontier exports; last "
            f"evaluation {last.supersteps} supersteps / "
            f"{last.local_runs} runs); "
            f"backend evaluations/runs: {backends}; "
            f"visited pairs: {self.visited_pairs}"
        )


@dataclass
class _GlobalRun:
    """One scatter-gather fixpoint: frontiers per shard plus gathered answers."""

    bit_of: dict
    compiled: "list[CompiledQuery]"
    frontiers: list
    per_bit: "list[set]"
    visited_pairs: int = 0
    visited_objects: int = 0


class _ShardIndex:
    """One shard's local node ids as the superstep exchange reads them.

    Per local id, ``owner`` is the shard that owns the node when it is a
    ghost (``-1`` when this shard owns it) and ``owner_node`` its id in the
    owner's graph: the route a fact landing on a ghost ships by.
    ``ghosts`` is the same partition as a set.  Node ids are append-only,
    so :meth:`extend` only looks at newly interned ones; :meth:`view`
    hands the table out in a kernel family's form, the numpy one built
    once per growth.
    """

    __slots__ = ("graph", "owner", "owner_node", "ghosts", "_vectors")

    def __init__(self, graph: CompiledGraph) -> None:
        self.graph = graph
        self.owner: "list[int]" = []
        self.owner_node: "list[int]" = []
        self.ghosts: "set[int]" = set()
        self._vectors: "tuple | None" = None

    def extend(
        self, shard: int, shard_of, engines: "Sequence[Engine]"
    ) -> "_ShardIndex":
        oids = self.graph.nodes.backing_list()
        for node in range(len(self.owner), len(oids)):
            home = shard_of(oids[node])
            if home == shard:
                self.owner.append(-1)
                self.owner_node.append(node)
                continue
            home_node = engines[home].graph.node_id(oids[node])
            if home_node is None:
                raise ReproError(
                    f"object {oids[node]!r} is not interned by its owner, shard {home}"
                )
            self.owner.append(home)
            self.owner_node.append(home_node)
            self.ghosts.add(node)
        return self

    def view(self, vectorized: bool) -> tuple:
        """``(owner, owner_node, skip, labels)`` — the route table, the
        ghosts to leave out of a gather and the oids by node id — as lists
        and a set, or (``vectorized``) as numpy arrays: int routes, a
        boolean ghost mask and an object array of oids."""
        oids = self.graph.nodes.backing_list()
        if not vectorized:
            return self.owner, self.owner_node, self.ghosts, oids
        if self._vectors is None or len(self._vectors[0]) != len(self.owner):
            from .executor_np import np

            owner = np.array(self.owner, dtype=np.int64)
            self._vectors = (
                owner,
                np.array(self.owner_node, dtype=np.int64),
                owner >= 0,
                np.fromiter(oids, dtype=object, count=len(oids)),
            )
        return self._vectors


class ShardedEngine(Session):
    """A sharded compiled-evaluation session with scatter-gather serving.

    The same :class:`~repro.engine.session.Session` API as :class:`Engine`
    — ``query`` / ``query_batch`` / ``query_all`` / ``add_edge`` /
    ``remove_edge`` / ``save`` / ``stats`` — over a second evaluator: the
    instance is partitioned across ``num_shards`` compiled graphs and
    evaluated by superstep frontier exchange (module docstring).  Construct
    with :meth:`open` (an instance, or a snapshot directory written by
    :meth:`save`).

    With ``concurrency=N`` (N > 1) each superstep's per-shard local
    fixpoints — independent by construction: a shard's step touches only its
    own compiled graph and frontier, and cross-shard facts exchange at the
    barrier — run on a thread-pool
    :class:`~repro.engine.serving.SuperstepScheduler` instead of
    sequentially, the calling thread taking its share of them.  The numpy
    executor releases the GIL inside its ``reduceat`` hot loops, so shard
    steps overlap when the process has CPUs to spare; pinned to one CPU (as
    the benchmark's sharded workload runs) they interleave instead, and the
    caller usually runs most of a superstep itself.  :meth:`close` releases
    the threads; the session keeps serving, sequentially.

    Thread-safety mirrors :class:`Engine`: concurrent callers are safe —
    evaluations serialize on the session lock (the supersteps *within* one
    evaluation are what parallelize) — and the serving layer's admission
    queue (:meth:`as_server`) batches concurrent requests in front of it.
    """

    # ``_subs``/``_shards`` are rebuilt references, atomically published
    # under ``_lock``; read paths (properties, gauges, ghost cache) take
    # lock-free point reads of whichever build they land on.  ``_rewrites``
    # and ``_scheduler`` are the base's (see :class:`Session`).
    GUARDED_BY = {
        "_subs": "_lock:mutate",
        "_shards": "_lock:mutate",
        "_instance_version": "_lock",
    }

    _PREFIX = "sharded"

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
        # Shard engines carry their own (never-snapshotted) registries; their
        # *spans* still join this session's traces — span parentage follows
        # the active context, not the owning session — so a trace shows
        # shard compiles under the sharded evaluation that triggered them.
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
        self._hist_superstep = registry.histogram(
            "sharded_superstep_seconds", "one bulk-synchronous superstep round"
        )
        self._hist_local = registry.histogram(
            "sharded_local_fixpoint_seconds", "one shard's local superstep"
        )
        if concurrency is not None and concurrency < 1:
            raise ReproError("concurrency must be a positive worker count")
        if concurrency is not None and concurrency > 1:
            from .serving import SuperstepScheduler

            self._scheduler = scheduler = SuperstepScheduler(concurrency)
            for attr, help_text in (
                ("steps", "per-shard steps scheduled"),
                ("barriers", "superstep barriers joined"),
                ("concurrent_steps", "peak simultaneously in-flight shard steps"),
            ):
                registry.gauge(
                    f"sharded_scheduler_{attr}", help_text,
                    lambda a=attr: getattr(scheduler, a),
                )
        self._labels: list[str] = []
        self._label_set: set[str] = set()
        # Constraint pre-rewrite happens ONCE, in the session's memo, not per
        # shard: every shard must compile the *same* expression, or the
        # exchanged DFA state ids would not line up.  Shard engines are
        # therefore built constraint-free.
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
            self._reset_indexes()
            # Stale shards may have rebuilt with labels the warm shards (or
            # the manifest) have never seen; level the universes.
            self._sync_labels(instance.labels())
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
        self._reset_indexes()
        self._instance_version = instance.version

    def _reset_indexes(self) -> None:
        # The shard graphs the indexes were built against: a ghost's
        # owner-local id is only good while its owner's graph is.
        self._index_graphs = tuple(engine.graph for engine in self._shards)
        self._indexes: "list[_ShardIndex | None]" = [None] * self._map.num_shards
        self._home_codes: "dict[Oid, int]" = {}

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

    def _homes(self, oids: "Iterable[Oid]") -> "list[int]":
        """Per oid, its shard and its node id there as ``shard << 32 |
        node`` — where a source's bit starts.  Cached like the indexes: a
        steady batch maps its sources in one C-level pass."""
        homes = self._home_codes
        try:
            return list(map(homes.__getitem__, oids))
        except KeyError:
            for oid in oids:
                if oid not in homes:
                    shard = self._map.shard_of(oid)
                    homes[oid] = shard << 32 | self._shards[shard].graph.node_id(oid)
            return list(map(homes.__getitem__, oids))

    def _index(self, shard: int) -> _ShardIndex:
        """``shard``'s :class:`_ShardIndex`, brought up to its graph's ids."""
        index = self._indexes[shard]
        if index is None:
            index = self._indexes[shard] = _ShardIndex(self._shards[shard].graph)
        return index.extend(shard, self._map.shard_of, self._shards)

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
    def scheduler(self) -> "SuperstepScheduler | None":
        """The concurrent superstep scheduler, or ``None`` when sequential."""
        return self._scheduler

    @property
    def warm_shards(self) -> int:
        return sum(1 for engine in self._shards if engine.stats.snapshot_restores)

    @property
    def rebuilt_shards(self) -> int:
        return sum(1 for engine in self._shards if engine.stats.graph_builds)

    def _lowering_counts(self) -> "dict[str, int]":
        """Summed over the shards' graphs."""
        per_shard = [engine.graph.lowering_counts() for engine in self._shards]
        return {how: sum(counts[how] for counts in per_shard) for how in per_shard[0]}

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

        The destination is registered with *its* owner too (objects must
        always have an owner for the gather step), and a genuinely new label
        is interned into every shard graph so the shared label universe —
        and with it cross-shard DFA state numbering — stays aligned.
        """
        with self._lock:
            self.refresh()
            instance = self._instance
            if instance.has_edge(source, label, destination):
                return
            instance.add_edge(source, label, destination)
            self._sync_labels((label,))
            owner = self._map.shard_of(source)
            self._shards[owner].add_edge(source, label, destination)
            for endpoint in (source, destination):
                home = self._map.shard_of(endpoint)
                if home != owner and endpoint not in self._subs[home]:
                    self._subs[home].add_object(endpoint)
            self._instance_version = instance.version

    @acquires("Engine._lock")
    def remove_edge(self, source: Oid, label: str, destination: Oid) -> None:
        """Remove one edge from the shard that owns ``source`` (tombstone)."""
        with self._lock:
            self.refresh()
            self._instance.remove_edge(source, label, destination)
            owner = self._map.shard_of(source)
            self._shards[owner].remove_edge(source, label, destination)
            self._instance_version = self._instance.version

    @acquires("Engine._lock")
    def compact_now(self) -> bool:
        """Compact every shard graph now (see ``Engine.compact_now``).

        Returns ``True`` when any shard's layout changed.  Each shard
        drains its own in-flight runs independently — there is no global
        barrier, matching how incremental edits land shard-locally.
        """
        with self._lock:
            self.refresh()
            compacted = [engine.compact_now() for engine in self._shards]
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

    # -- evaluation -----------------------------------------------------------
    # _prepared comes from Session and runs exactly once for all shards: the
    # rewritten expression is what every shard compiles, so the DFA state
    # ids exchanged between shards always agree.
    @acquires("Engine._lock")
    def _compiled_everywhere(self, prepared) -> list:
        """One compiled table per shard, compiled (at most) once overall.

        DFA construction is graph-independent and every shard normally
        interns the same label universe in the same order, so shard 0's
        table is byte-for-byte what every other shard would compile; it is
        seeded into their caches (keeping per-shard snapshots warm) instead
        of re-running the subset construction per shard — with a
        ``by_site`` map that is one compile instead of one per *object*.
        A shard whose interning order diverged (possible after a
        stale-shard rebuild) compiles its own table.
        """
        first = self._shards[0]
        compiled_first = first.compiled(prepared)  # refreshes shard 0
        fingerprint = first.graph.labels_fingerprint()
        key = query_key(prepared)
        compiled = [compiled_first]
        for engine in self._shards[1:]:
            engine.refresh()
            if engine.graph.labels_fingerprint() == fingerprint:
                engine.compiler.seed(key, compiled_first, fingerprint)
                compiled.append(compiled_first)
            else:
                compiled.append(engine.compiled(prepared))
        return compiled

    def _local_fixpoint(
        self,
        shard: int,
        seeds,
        frontier,
        compiled: "CompiledQuery",
        num_bits: int,
        route: tuple,
        answer_sink=None,
    ):
        """One shard's local superstep: drive the executor to a fixpoint.

        Pure with respect to every *other* shard — the step touches only
        this shard's engine, compiled graph and frontier handle, which is
        what lets the scheduler run the steps of one superstep concurrently.
        ``seeds`` are kernel-native (what :meth:`NpFrontier.route` delivered),
        so the run takes them as they are.  Returns ``(frontier, exports)``:
        the continued handle and the facts that grew onto ghost nodes,
        already routed to their owners' node ids (``None`` when none did).
        """
        run = run_batch(
            self._shards[shard].graph,
            compiled,
            (),
            seeds=seeds,
            known=frontier,
            num_bits=num_bits,
            answer_sink=answer_sink,
            backend=self.backend,
        )
        return run.frontier, run.frontier.exports(*route)

    def _evaluate(
        self, query, sources: "Sequence[Oid]", answer_sink=None
    ) -> _GlobalRun:
        """Run the scatter-gather superstep fixpoint for ``sources``.

        ``sources`` must be objects of the instance.  Each shard's state
        lives in a backend-native frontier (cumulative masks) that is handed
        back to :func:`run_batch` as ``known`` every superstep, so repeated
        rounds neither re-flood earlier work nor pay any conversion.

        The loop is a classic bulk-synchronous superstep: the independent
        per-shard :meth:`_local_fixpoint` steps (scheduled concurrently when
        a :attr:`scheduler` is installed), then a barrier that routes every
        exported ghost fact to its owner as the next round's seed frontier.
        The exchange is the frontier family's own calls —
        ``exports``/``route`` on the numpy handle are flat keys and uint64
        rows end to end — so a superstep costs what it exchanges; the answers
        are gathered once, over every shard's owned accepting rows, at the
        end (the ``sharded.exchange`` and ``sharded.assemble`` spans).

        ``answer_sink(source_oid, answers)``, when given, streams *owned*
        accepting facts out of the supersteps as they land: each shard's
        executor reports newly accepting ``(node, bits)`` facts mid-round,
        ghost nodes are filtered (their owner streams them), and each
        ``(source, answer)`` pair is delivered at most once per evaluation
        (the executors never re-report facts a continued frontier already
        held).  The sink runs on scheduler worker threads — it must be
        cheap and thread-safe.
        """
        self.refresh()
        compiled = self._compiled_everywhere(self._prepared(query))
        graphs = tuple(engine.graph for engine in self._shards)
        if graphs != self._index_graphs:
            self._reset_indexes()
        backend = resolve_backend(self.backend)
        family = frontier_class(backend)
        vectorized = family is not PyFrontier
        # The per-evaluation view accumulates in a *local* object and is
        # published into ``stats.last_run`` in one reference assignment at
        # the end: a concurrent ``summary()``/gauge read never sees a
        # half-accumulated evaluation (it always reads the last finished one).
        counters = SuperstepCounters()
        tele = self.metrics
        bit_of = dict(zip(dict.fromkeys(sources), count()))
        num_bits = len(bit_of)
        sizes = [graph.num_nodes for graph in graphs]
        frontiers: list = [None] * len(graphs)
        # DFA state numbering is graph-independent (states are sorted before
        # indexing, and the shared label universe rules out cross-shard
        # liveness differences), so shard 0's automaton speaks for all.
        pending = family.source_seeds(self._homes(bit_of), compiled[0].initial, sizes)
        bit_to_oid = list(bit_of)  # insertion order: position == bit
        views: "dict[int, tuple]" = {}

        def view(shard: int) -> tuple:
            """``shard``'s index in the kernel family's form, once per evaluation."""
            found = views.get(shard)
            if found is None:
                found = views[shard] = self._index(shard).view(vectorized)
            return found

        sink_for = None
        if answer_sink is not None:

            def sink_for(shard: int):
                """Adapt the executor's (node, bits) facts to (source oid, answer)."""
                index = self._index(shard)
                ghosts = index.ghosts
                oid_of = index.graph.nodes.backing_list()

                def sink(bit, nodes):
                    # The executor hands a whole round's facts for one source
                    # bit at a time; this runs inside the local fixpoint, so
                    # the ghost filter plus node→oid mapping is the only
                    # per-fact work left on the evaluation thread.
                    answers = [oid_of[node] for node in nodes if node not in ghosts]
                    if answers:
                        answer_sink(bit_to_oid[bit], answers)

                return sink

        while pending:
            self.stats.supersteps += 1
            counters.supersteps += 1
            active = sorted(pending)
            # The superstep span parents the per-shard fixpoint spans, which
            # may run on scheduler worker threads — the contextvar does not
            # follow them there, so parentage is explicit (span_under).
            superstep_span = tele.span(
                "sharded.superstep", round=counters.supersteps, shards=len(active)
            )
            durations: "list[float]" = []

            def make_step(shard: int):
                seeds, frontier = pending[shard], frontiers[shard]
                route = view(shard)[:3]
                sink = sink_for(shard) if sink_for is not None else None

                def step():
                    local_span = tele.span_under(
                        superstep_span, "sharded.local_fixpoint",
                        shard=shard, backend=backend,
                    )
                    try:
                        # Current for the run, so the dispatcher lands the
                        # kernel's work counts on this span.
                        with tele.under(local_span):
                            result = self._local_fixpoint(
                                shard, seeds, frontier, compiled[shard],
                                num_bits, route, answer_sink=sink,
                            )
                        exports = result[1]
                        local_span.set(
                            exports=0 if exports is None else len(exports[0])
                        )
                    finally:
                        local_span.end()
                    self._hist_local.observe(local_span.duration)
                    durations.append(local_span.duration)
                    return result

                return step

            steps = [make_step(shard) for shard in active]
            if self._scheduler is not None:
                results = self._scheduler.run(steps)
            else:
                results = [step() for step in steps]
            # Superstep balance: max/mean per-step wall time (1.0 = even).
            if len(durations) > 1:
                total = sum(durations)
                if total > 0.0:
                    self.stats.superstep_skew_ratio = (
                        max(durations) * len(durations) / total
                    )
            # Barrier: adopt every shard's new frontier, then scatter — route
            # each exported ghost fact to its owner, shipping only bits the
            # owner has not absorbed yet (it may have derived the same fact
            # itself this round).
            packets = []
            for shard, (frontier, exports) in zip(active, results):
                frontiers[shard] = frontier
                if exports is not None:
                    packets.append(exports)
            self.stats.record_local_runs(backend, len(active))
            counters.local_runs += len(active)
            exchange_span = tele.span_under(superstep_span, "sharded.exchange")
            pending, shipped = (
                family.route(packets, frontiers, sizes) if packets else ({}, 0)
            )
            exported = sum(len(packet[0]) for packet in packets)
            exchange_span.end(
                exported=exported, shipped=shipped, absorbed=exported - shipped
            )
            self.stats.exchanged_facts += shipped
            counters.exchanged_facts += shipped
            superstep_span.end(exchanged=counters.exchanged_facts)
            self._hist_superstep.observe(superstep_span.duration)
        self.stats.last_run = counters  # atomic publish (see above)
        if counters.local_runs:
            self.stats.record_evaluation(backend)

        # Gather: accepting-state facts of each shard's owned nodes, in one
        # pass over every shard's reached rows.
        assemble_span = tele.span("sharded.assemble")
        parts = [
            (frontier, *view(shard)[2:])
            for shard, frontier in enumerate(frontiers)
            if frontier is not None
        ]
        visited_pairs, visited_objects, per_bit = family.assemble(
            parts, compiled[0].accepting, num_bits
        )
        assemble_span.end(shards=len(parts), answers=sum(map(len, per_bit)))
        self.stats.visited_pairs += visited_pairs
        self.stats.visited_objects += visited_objects
        return _GlobalRun(
            bit_of=bit_of,
            compiled=compiled,
            frontiers=frontiers,
            per_bit=per_bit,
            visited_pairs=visited_pairs,
            visited_objects=visited_objects,
        )

    @guarded_by("_lock")
    def _count_degrees(self) -> DegreeStats:
        """Per-label live edge counts summed across shard CSRs.

        Each edge lives on the shard owning its source, so summing the
        per-shard :meth:`~repro.engine.csr.CompiledGraph.label_edge_counts`
        counts every edge exactly once; ``num_nodes`` comes from the global
        instance (shard graphs also intern ghost frontier nodes, which must
        not inflate the domain size the planner divides by).
        """
        counts: "dict[str, int]" = {}
        for engine in self._shards:
            for label, count in engine.graph.label_edge_counts().items():
                counts[label] = counts.get(label, 0) + count
        return DegreeStats(num_nodes=len(self._instance), label_counts=counts)

    # -- the host half of the Session contract --------------------------------
    def _query_single(self, query, source: Oid):
        with self._lock:
            self.refresh()
            if source not in self._instance:
                return self._shards[0].compiled(self._prepared(query)), None
            run = self._evaluate(query, [source])
            result = EvaluationResult(
                answers=set(run.per_bit[0]),
                visited_pairs=run.visited_pairs,
                visited_objects=run.visited_objects,
            )
            result.witness_paths.update(self._witness_words(run, source))
            return run.compiled[0], result

    def _query_batch(self, query, sources: "list[Oid]", emit):
        """One scatter-gather fixpoint over the sources the instance holds.

        ``emit`` receives each ``(source, answer)`` pair at most once, as
        the owning shard's local fixpoint derives it — mid-superstep, from
        scheduler worker threads.
        """
        with self._lock:
            known = [oid for oid in sources if oid in self._instance]
            run = self._evaluate(query, known, answer_sink=emit)
            return run.compiled[0], {
                oid: run.per_bit[bit] for oid, bit in run.bit_of.items()
            }

    def _query_batch_results(self, query, sources: "list[Oid]"):
        """One scatter-gather fixpoint, then each source's answers get one
        witness label word apiece from the ``(state, oid)`` BFS stitched
        across shards — the same reconstruction single-source :meth:`query`
        uses, restricted per source to its own bit of the owned fact masks
        (computed once for the whole batch)."""
        with self._lock:
            known = [oid for oid in sources if oid in self._instance]
            run = self._evaluate(query, known)
            facts = self._fact_masks(run)
            found: "dict[Oid, EvaluationResult]" = {}
            for oid, bit in run.bit_of.items():
                result = EvaluationResult(
                    answers=set(run.per_bit[bit]),
                    visited_pairs=run.visited_pairs,
                    visited_objects=run.visited_objects,
                )
                result.witness_paths.update(
                    self._witness_words(run, oid, bit, facts)
                )
                found[oid] = result
            return run.compiled[0], found

    def _query_all(self, query) -> "dict[Oid, set[Oid]]":
        return self._query_batch(query, self._active_domain(), None)[1]

    def _fact_masks(self, run: _GlobalRun) -> "dict[tuple[int, Oid], int]":
        """Every owned ``(state, oid)`` fact of a run with its source bitmask.

        Computed once per run and shared across the per-source witness
        walks of a batch (each restricts to its own bit of the masks).
        """
        facts: "dict[tuple[int, Oid], int]" = {}
        for shard, frontier in enumerate(run.frontiers):
            if frontier is None:
                continue
            index = self._index(shard)
            ghosts = index.ghosts
            oid_of = index.graph.nodes.backing_list()
            for state, node, mask in frontier.items():
                if node not in ghosts:
                    facts[(state, oid_of[node])] = mask
        return facts

    def _witness_words(
        self,
        run: _GlobalRun,
        source: Oid,
        bit: int = 0,
        facts: "dict[tuple[int, Oid], int] | None" = None,
    ) -> "dict[Oid, tuple[str, ...]]":
        """Rebuild one witness label word per answer of one source's bit.

        A BFS over ``(state, oid)`` pairs stitched across shards: adjacency
        comes from the owning shard's sub-instance (an owned node's full
        description lives there), transitions from that shard's compiled
        table, and expansion is restricted to the facts the fixpoint proved
        reachable for the source's bit — so the walk is bounded by work the
        supersteps already did, and the first accepting visit per target is
        a shortest witness.  ``facts`` lets a batched caller compute the
        owned fact masks once and share them across all its sources.
        """
        if facts is None:
            facts = self._fact_masks(run)
        flag = 1 << bit
        compiled0 = run.compiled[0]
        accepting = compiled0.accepting
        start = (compiled0.initial, source)
        parents: "dict[tuple[int, Oid], tuple[tuple[int, Oid], str] | None]" = {
            start: None
        }
        first_accept: "dict[Oid, tuple[int, Oid]]" = {}
        if accepting[compiled0.initial]:
            first_accept[source] = start
        queue: "deque[tuple[int, Oid]]" = deque([start])
        while queue:
            state, oid = queue.popleft()
            shard = self._map.shard_of(oid)
            table = run.compiled[shard].table
            label_id = self._shards[shard].graph.label_id
            for label, destination in self._subs[shard].out_edges(oid):
                lid = label_id(label)
                if lid is None:
                    continue
                next_state = table[state][lid]
                if next_state < 0:
                    continue
                key = (next_state, destination)
                if key in parents or not facts.get(key, 0) & flag:
                    continue
                parents[key] = ((state, oid), label)
                if accepting[next_state] and destination not in first_accept:
                    first_accept[destination] = key
                queue.append(key)
        words: "dict[Oid, tuple[str, ...]]" = {}
        for answer, key in first_accept.items():
            labels: list[str] = []
            while True:
                parent = parents[key]
                if parent is None:
                    break
                key, label = parent
                labels.append(label)
            labels.reverse()
            words[answer] = tuple(labels)
        return words

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
