"""The semistructured data model of Section 2.1.

A database is a labeled directed graph, formally an instance of the single
relational schema ``Ref(source: oid, label: label, destination: oid)``.  The
paper's only structural restriction is that every object has *finite
outdegree* (each Web page references a small, fixed number of pages) while
indegree may be unbounded.

Two implementations are provided:

* :class:`Instance` — a fully materialized finite graph, the common case for
  all decision procedures and benchmarks;
* :class:`LazyInstance` — a graph whose out-edges are produced on demand by a
  callback, modeling the paper's *infinite Web* (Remark 2.1): queries that
  would require exhaustive exploration simply never exhaust a lazy instance,
  while controlled navigation works fine.  Both classes satisfy the same
  minimal protocol (``out_edges(oid)``), which is all the evaluators need.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator

from ..exceptions import InstanceError


def _stable_digest(tag: bytes, value: object) -> int:
    """A 128-bit process-stable digest of one object or edge.

    Built on ``repr`` + blake2b, so — unlike :func:`hash` — the value
    survives hash randomization and can stamp persistent artifacts.
    """
    payload = tag + repr(value).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=16).digest(), "big")

Oid = Hashable
Edge = tuple[Oid, str, Oid]


@dataclass(frozen=True, slots=True)
class Ref:
    """One tuple of the ``Ref`` relation: a labeled edge ``source --label--> destination``."""

    source: Oid
    label: str
    destination: Oid

    def as_tuple(self) -> Edge:
        return (self.source, self.label, self.destination)


class Instance:
    """A finite labeled graph (a finite instance over the ``Ref`` schema)."""

    def __init__(self, edges: "Iterable[Edge | Ref] | None" = None) -> None:
        # One tuple per edge: the per-source lists hold the very tuples of
        # ``_edge_set`` (a second ``(label, destination)`` pair per edge
        # would cost 56 bytes each), and :meth:`out_edges` projects them.
        self._out: dict[Oid, list[Edge]] = defaultdict(list)
        self._edge_set: set[Edge] = set()
        self._objects: set[Oid] = set()
        self._version = 0
        self._edge_version = 0
        # Order-insensitive content digest, maintained incrementally: the
        # XOR of one stable 128-bit digest per object and per edge.  XOR is
        # self-inverse, which makes removals O(1); both aggregates range
        # over *sets*, so no duplicate can cancel a live element.
        self._content_digest = 0
        if edges:
            for edge in edges:
                if isinstance(edge, Ref):
                    self.add_edge(edge.source, edge.label, edge.destination)
                else:
                    source, label, destination = edge
                    self.add_edge(source, label, destination)

    # -- construction ---------------------------------------------------------
    def add_object(self, oid: Oid) -> Oid:
        """Register an object even if it has no outgoing edges yet."""
        if oid not in self._objects:
            self._objects.add(oid)
            self._content_digest ^= _stable_digest(b"o", oid)
            self._version += 1
        return oid

    def add_edge(self, source: Oid, label: str, destination: Oid) -> None:
        """Add the tuple ``Ref(source, label, destination)`` (idempotent)."""
        if not isinstance(label, str) or not label:
            raise InstanceError("edge labels must be non-empty strings")
        edge = (source, label, destination)
        if edge in self._edge_set:
            return
        self._edge_set.add(edge)
        self._out[source].append(edge)
        for endpoint in (source, destination):
            if endpoint not in self._objects:
                self._objects.add(endpoint)
                self._content_digest ^= _stable_digest(b"o", endpoint)
        self._content_digest ^= _stable_digest(b"e", edge)
        self._version += 1
        self._edge_version += 1

    def remove_edge(self, source: Oid, label: str, destination: Oid) -> None:
        edge = (source, label, destination)
        if edge not in self._edge_set:
            raise InstanceError(f"edge {edge!r} not present")
        self._edge_set.remove(edge)
        self._out[source].remove(edge)
        self._content_digest ^= _stable_digest(b"e", edge)
        self._version += 1
        self._edge_version += 1

    # -- queries --------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter, used by compiled views (``repro.engine``)
        to detect staleness without diffing edge sets."""
        return self._version

    @property
    def edge_version(self) -> int:
        """Monotone counter of *edge* mutations only.

        ``add_object`` of an isolated node bumps :attr:`version` but not this
        counter, which lets compiled views distinguish "the object set grew"
        (interners can grow in place, caches stay warm) from "the edge set
        changed" (the CSR layout may need a rebuild)."""
        return self._edge_version

    def content_fingerprint(self) -> str:
        """A process-stable digest of the object and edge sets, in O(1).

        Two instances with equal object and edge sets report the same
        fingerprint regardless of construction order or process (the
        per-element digests are ``repr``-based and immune to hash
        randomization); the aggregate is maintained incrementally on every
        mutation, so reading it costs nothing — which is what lets snapshot
        warm-start (``repro.engine.snapshot``) validate a stored stamp
        against a live instance without an O(E log E) scan."""
        return format(self._content_digest, "032x")

    @property
    def objects(self) -> frozenset[Oid]:
        return frozenset(self._objects)

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def edge_count(self) -> int:
        return len(self._edge_set)

    def has_edge(self, source: Oid, label: str, destination: Oid) -> bool:
        return (source, label, destination) in self._edge_set

    def out_edges(self, oid: Oid) -> list[tuple[str, Oid]]:
        """The *description* of an object: its finitely many outgoing links."""
        return [(label, dest) for _, label, dest in self._out.get(oid, ())]

    def out_degree(self, oid: Oid) -> int:
        return len(self._out.get(oid, ()))

    def in_edges(self, oid: Oid) -> list[tuple[Oid, str]]:
        """Incoming edges (computed, since the model keeps only descriptions)."""
        return [
            (source, label)
            for (source, label, destination) in self._edge_set
            if destination == oid
        ]

    def in_degree(self, oid: Oid) -> int:
        return sum(1 for (_, _, destination) in self._edge_set if destination == oid)

    def labels(self) -> frozenset[str]:
        """The (finite) set of labels appearing on edges."""
        return frozenset(label for (_, label, _) in self._edge_set)

    def successors(self, oid: Oid, label: str) -> list[Oid]:
        return [dest for (_, lbl, dest) in self._out.get(oid, ()) if lbl == label]

    def edges(self) -> Iterator[Edge]:
        yield from sorted(self._edge_set, key=repr)

    def refs(self) -> Iterator[Ref]:
        for source, label, destination in self.edges():
            yield Ref(source, label, destination)

    # -- transformation -------------------------------------------------------
    def map_objects(self, mapping: Callable[[Oid], Oid]) -> "Instance":
        """Apply a graph homomorphism on object identifiers.

        This is the ``μ`` used both by the Theorem 4.2 witness construction
        (collapsing vertices with equal ``states(o')``) and by the general
        path query translation of Proposition 2.2.
        """
        image = Instance()
        for oid in self._objects:
            image.add_object(mapping(oid))
        for source, label, destination in self._edge_set:
            image.add_edge(mapping(source), label, mapping(destination))
        return image

    def map_labels(self, mapping: Callable[[str], str]) -> "Instance":
        """Apply a relabeling of edge labels (used by the μ translation)."""
        image = Instance()
        for oid in self._objects:
            image.add_object(oid)
        for source, label, destination in self._edge_set:
            image.add_edge(source, mapping(label), destination)
        return image

    def restricted_to(self, objects: Iterable[Oid]) -> "Instance":
        """Sub-instance induced by a set of objects (e.g. a K-sphere)."""
        keep = set(objects)
        restricted = Instance()
        for oid in keep:
            restricted.add_object(oid)
        for source, label, destination in self._edge_set:
            if source in keep and destination in keep:
                restricted.add_edge(source, label, destination)
        return restricted

    def copy(self) -> "Instance":
        duplicate = Instance()
        for oid in self._objects:
            duplicate.add_object(oid)
        for edge in self._edge_set:
            duplicate.add_edge(*edge)
        return duplicate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._objects == other._objects and self._edge_set == other._edge_set

    def __hash__(self) -> int:  # pragma: no cover - instances are mutable
        raise TypeError("Instance objects are mutable and unhashable")

    def __repr__(self) -> str:
        return f"Instance(objects={len(self._objects)}, edges={len(self._edge_set)})"


class LazyInstance:
    """A potentially infinite instance whose descriptions are generated on demand.

    ``expander(oid)`` must return the finite list of ``(label, destination)``
    pairs describing ``oid``'s outgoing links.  Results are memoized so that a
    lazy instance behaves deterministically across repeated traversals.

    The class is a faithful model of the paper's infinite-Web abstraction:
    the graph as a whole is never materialized, and any algorithm that would
    need to visit infinitely many objects simply fails to terminate (callers
    should therefore bound their exploration, exactly as Section 2 prescribes
    for "reasonable" queries).
    """

    def __init__(self, expander: Callable[[Oid], Iterable[tuple[str, Oid]]]) -> None:
        self._expander = expander
        self._cache: dict[Oid, list[tuple[str, Oid]]] = {}

    def out_edges(self, oid: Oid) -> list[tuple[str, Oid]]:
        if oid not in self._cache:
            edges = list(self._expander(oid))
            for label, _ in edges:
                if not isinstance(label, str) or not label:
                    raise InstanceError("edge labels must be non-empty strings")
            self._cache[oid] = edges
        return list(self._cache[oid])

    def successors(self, oid: Oid, label: str) -> list[Oid]:
        return [dest for (lbl, dest) in self.out_edges(oid) if lbl == label]

    def explored_objects(self) -> frozenset[Oid]:
        """Objects whose description has been materialized so far."""
        return frozenset(self._cache)

    def materialize(self, roots: Iterable[Oid], max_objects: int) -> Instance:
        """Materialize the finite portion reachable from ``roots``.

        Exploration stops after ``max_objects`` objects have been described;
        an :class:`InstanceError` is raised if the frontier is still non-empty
        at that point, signaling that the query-relevant portion is not finite
        within the given budget (the lazy analogue of non-termination).
        """
        instance = Instance()
        frontier = list(roots)
        seen: set[Oid] = set()
        while frontier:
            oid = frontier.pop()
            if oid in seen:
                continue
            seen.add(oid)
            if len(seen) > max_objects:
                raise InstanceError(
                    "materialization budget exceeded; the reachable portion "
                    "is larger than max_objects"
                )
            instance.add_object(oid)
            for label, destination in self.out_edges(oid):
                instance.add_edge(oid, label, destination)
                if destination not in seen:
                    frontier.append(destination)
        return instance
