"""Dense-integer interning of labels and object identifiers.

Everything downstream of the compiled engine works on consecutive small
integers: object identifiers become node ids ``0..n-1`` and edge labels
become label ids ``0..L-1``.  Interning is append-only — an id, once
assigned, never changes — which is what lets compiled artifacts (CSR
partitions, DFA transition tables) stay valid across incremental graph
growth: a table compiled against the first ``L`` labels is invalidated only
when a genuinely new label appears, and the cache key — the interner's
:meth:`~Interner.fingerprint`, i.e. the id-ordered label tuple — captures
exactly that (see :mod:`repro.engine.compiled_query`).
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterable, Iterator, TypeVar

Value = TypeVar("Value", bound=Hashable)


class Interner(Generic[Value]):
    """An append-only bijection between hashable values and dense ints."""

    __slots__ = ("_ids", "_values", "_fingerprint", "_fingerprint_len")

    def __init__(self, values: Iterable[Value] = ()) -> None:
        # First occurrence wins, as a loop of ``intern`` calls would have it.
        self._values: list[Value] = list(dict.fromkeys(values))
        self._ids: dict[Value, int] = dict(zip(self._values, range(len(self._values))))
        self._fingerprint: tuple[Value, ...] = ()
        self._fingerprint_len = 0

    def intern(self, value: Value) -> int:
        """Return the id of ``value``, assigning the next free id if new."""
        existing = self._ids.get(value)
        if existing is not None:
            return existing
        assigned = len(self._values)
        self._ids[value] = assigned
        self._values.append(value)
        return assigned

    def id_of(self, value: Value) -> int | None:
        """The id of ``value`` if it has been interned, else ``None``."""
        return self._ids.get(value)

    def value_of(self, index: int) -> Value:
        """Inverse lookup; raises ``IndexError`` for unassigned ids."""
        return self._values[index]

    def values(self) -> tuple[Value, ...]:
        """All interned values, in id order."""
        return tuple(self._values)

    def fingerprint(self) -> tuple[Value, ...]:
        """The id-ordered value tuple, cached until the interner grows.

        Two interners with equal fingerprints assign identical ids, so the
        tuple is a correct cache key for artifacts compiled against this
        id assignment (e.g. DFA transition tables whose columns are label
        ids) — unlike ``len()``, which two *permuted* interners share.
        Returning the same tuple object between mutations keeps repeated
        dict lookups on the key cheap."""
        if self._fingerprint_len != len(self._values):
            self._fingerprint = tuple(self._values)
            self._fingerprint_len = len(self._values)
        return self._fingerprint

    def backing_list(self) -> list[Value]:
        """The live id-ordered value list, NOT a copy — callers must not
        mutate it.  Exists so bulk translation loops can index a local list
        instead of paying a method call per id."""
        return self._values

    def __contains__(self, value: object) -> bool:
        return value in self._ids

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Value]:
        return iter(self._values)

    def __repr__(self) -> str:
        preview = ", ".join(map(repr, self._values[:4]))
        suffix = ", ..." if len(self._values) > 4 else ""
        return f"Interner([{preview}{suffix}]) with {len(self._values)} values"
