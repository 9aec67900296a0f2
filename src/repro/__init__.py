"""repro — a reproduction of "Regular Path Queries with Constraints".

The library implements, in pure Python, the systems described by Abiteboul
and Vianu's PODS 1997 / JCSS 1999 paper:

* regular path queries over semistructured (labeled-graph) data and their
  centralized, quotient-based, Datalog-based and distributed evaluation;
* path constraints (inclusions and equalities between path expressions) and
  the implication problem: PTIME for word constraints, PSPACE for path
  constraints implied by word constraints, and a bounded procedure for the
  general 2-EXPSPACE case;
* Armstrong instances for word equalities, K-spheres, and the boundedness
  decision procedure (equivalence to a non-recursive query);
* constraint-aware query optimization (cached queries, mirror sites,
  recursion elimination).

Quickstart::

    from repro import RegularPathQuery, Instance, answer_set

    graph = Instance([("home", "a", "x"), ("x", "b", "y")])
    print(answer_set("a b*", "home", graph))
"""

from .exceptions import (
    AutomatonError,
    BoundednessError,
    ConstraintError,
    DatalogError,
    DeterminizationBudgetError,
    DistributedProtocolError,
    ImplicationUndecidedError,
    InstanceError,
    RegexSyntaxError,
    ReproError,
)
from .graph import Instance, LazyInstance, Ref
from .query import RegularPathQuery, answer_set, evaluate
from .regex import Regex, parse, sym, word

__version__ = "1.0.0"

__all__ = [
    "AutomatonError",
    "BoundednessError",
    "ConstraintError",
    "DatalogError",
    "DeterminizationBudgetError",
    "DistributedProtocolError",
    "ImplicationUndecidedError",
    "Instance",
    "InstanceError",
    "LazyInstance",
    "Ref",
    "RegexSyntaxError",
    "Regex",
    "RegularPathQuery",
    "ReproError",
    "answer_set",
    "evaluate",
    "parse",
    "sym",
    "word",
    "__version__",
]
