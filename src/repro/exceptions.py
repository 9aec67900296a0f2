"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch any failure originating from the library with a single ``except``
clause while still being able to discriminate between the finer-grained
categories below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class RegexSyntaxError(ReproError):
    """Raised when a regular-expression string cannot be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class AutomatonError(ReproError):
    """Raised for structurally invalid automata or unsupported operations."""


class InstanceError(ReproError):
    """Raised when a graph instance violates the data model.

    The paper requires every vertex to have *finite* outdegree; attempting to
    materialize an unbounded neighborhood, or referring to an unknown vertex,
    raises this error.
    """


class ConstraintError(ReproError):
    """Raised for malformed path constraints or unsupported constraint mixes."""


class ImplicationUndecidedError(ReproError):
    """Raised when a bounded implication procedure cannot settle an instance.

    The general path-constraint implication problem is decidable only via a
    doubly-exponential search (Theorem 4.2); the practical procedures in
    :mod:`repro.constraints.general_implication` may give up within the
    configured bounds, in which case this error (or an ``UNKNOWN`` verdict,
    depending on the API used) is produced.
    """


class DatalogError(ReproError):
    """Raised for malformed Datalog programs (unsafe rules, arity clashes...)."""


class DistributedProtocolError(ReproError):
    """Raised when the distributed evaluation protocol reaches an invalid state."""


class BoundednessError(ReproError):
    """Raised when a boundedness question is asked of an unsupported input."""


class DeterminizationBudgetError(ReproError):
    """Raised when a query's subset construction outgrows the engine's budget.

    Determinizing a regular expression can take exponentially many states
    (``(a + b)* a (a + b)…(a + b)`` needs ``2^k``); the engine refuses such a
    query instead of pinning a worker on it.
    """
