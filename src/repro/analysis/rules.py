"""The concurrency-contract rule set.

Four rules, each encoding one clause of the engine's documented contract:

========================  ====================================================
``LockDiscipline``        attributes in a class's ``GUARDED_BY`` map are only
                          touched while the declared lock is held; methods
                          marked ``@guarded_by`` are only called under their
                          lock
``NoRunUnderLock``        executor entry points (``run_single`` /
                          ``run_batch`` / ``run_all_pairs``) never run
                          inside an exclusively-held lock region — the
                          "evaluations happen outside locks" latency rule
``LoopNeverBlocks``       ``async def`` bodies never call blocking primitives
                          (sleeps, sync acquires, file/socket I/O, cold
                          rewrite/admission paths); blocking work hops to a
                          pool via ``run_in_executor``
``LockOrder``             the static lock-acquisition graph is acyclic
========================  ====================================================

Rules report raw findings; suppression (``# repro: allow(Rule) why``) is
resolved by :mod:`repro.analysis.core`.
"""

from __future__ import annotations

import ast

from .core import (
    EXCLUSIVE,
    ClassInfo,
    LockWalker,
    Project,
    SourceFile,
    Violation,
    callee_name,
    dotted_name,
    iter_functions,
    walk_function,
)
from .lockgraph import LockGraph, build_lock_graph


class Rule:
    id: str = ""
    summary: str = ""

    def run(self, project: Project) -> list[Violation]:  # pragma: no cover
        raise NotImplementedError


# ---------------------------------------------------------------------------
# LockDiscipline
# ---------------------------------------------------------------------------


class _DisciplineWalker(LockWalker):
    def __init__(
        self,
        rule: "LockDiscipline",
        project: Project,
        source: SourceFile,
        info: ClassInfo,
        guarded,
        out: list[Violation],
    ) -> None:
        self.rule = rule
        self.project = project
        self.source = source
        self.info = info
        self.guarded = guarded
        self.out = out

    def on_node(self, node, held) -> None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.guarded
        ):
            spec = self.guarded[node.attr]
            is_load = isinstance(node.ctx, ast.Load)
            if spec.mutate_only and is_load:
                return
            ok = any(
                h.attr == spec.lock and (h.mode == EXCLUSIVE or is_load)
                for h in held
            )
            if not ok:
                verb = "read" if is_load else "written"
                self.out.append(
                    Violation(
                        rule=self.rule.id,
                        path=self.source.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"self.{node.attr} is {verb} without holding "
                            f"self.{spec.lock} (declared in "
                            f"{self.info.name}.GUARDED_BY)"
                        ),
                    )
                )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                target = self.project.resolve_method(self.info, func.attr)
                if target is not None and target.guarded_by:
                    lock = target.guarded_by
                    ok = any(h.attr == lock and h.mode == EXCLUSIVE for h in held)
                    if not ok:
                        self.out.append(
                            Violation(
                                rule=self.rule.id,
                                path=self.source.rel,
                                line=node.lineno,
                                col=node.col_offset,
                                message=(
                                    f"self.{func.attr}() requires self.{lock} "
                                    f"held (@guarded_by) but no lexical region "
                                    f"holds it"
                                ),
                            )
                        )


class LockDiscipline(Rule):
    id = "LockDiscipline"
    summary = "GUARDED_BY attributes only touched under their declared lock"

    def run(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        for source in project.files:
            for info in source.classes.values():
                guarded = project.effective_guarded(info)
                has_guarded_methods = any(
                    m.guarded_by for m in info.methods.values()
                )
                if not guarded and not has_guarded_methods:
                    # Classes without annotations still get checked for calls
                    # into base-class guarded methods when a base declares any.
                    if not any(
                        base_info is not None
                        and (
                            base_info.guarded
                            or any(m.guarded_by for m in base_info.methods.values())
                        )
                        for base_info in (
                            project.class_info(b) for b in info.bases
                        )
                    ):
                        continue
                known = set(info.lock_names())
                known.update(spec.lock for spec in guarded.values())
                walker = _DisciplineWalker(self, project, source, info, guarded, out)
                for name, method in info.methods.items():
                    if name == "__init__":
                        continue
                    walk_function(method.node, known, walker, info=info)
        return out


# ---------------------------------------------------------------------------
# NoRunUnderLock
# ---------------------------------------------------------------------------

EXECUTOR_ENTRY_POINTS = frozenset({"run_single", "run_batch", "run_all_pairs"})


class _RunUnderLockWalker(LockWalker):
    def __init__(self, rule: "NoRunUnderLock", source: SourceFile, out) -> None:
        self.rule = rule
        self.source = source
        self.out = out

    def on_node(self, node, held) -> None:
        if not isinstance(node, ast.Call):
            return
        name = callee_name(node)
        if name not in EXECUTOR_ENTRY_POINTS:
            return
        exclusive = [h for h in held if h.mode == EXCLUSIVE]
        if exclusive:
            locks = ", ".join(sorted({f"self.{h.attr}" for h in exclusive}))
            self.out.append(
                Violation(
                    rule=self.rule.id,
                    path=self.source.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{name}() called while holding {locks}; evaluations "
                        f"must run outside exclusive locks (shared "
                        f"read tokens are fine)"
                    ),
                )
            )


class NoRunUnderLock(Rule):
    id = "NoRunUnderLock"
    summary = "executor entry points never run under an exclusive lock"

    def run(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        for source in project.files:
            for info, func in iter_functions(source):
                known = info.lock_names() if info is not None else set()
                walker = _RunUnderLockWalker(self, source, out)
                walk_function(func, known, walker, info=info)
        return out


# ---------------------------------------------------------------------------
# LoopNeverBlocks
# ---------------------------------------------------------------------------

#: dotted-call prefixes that block the event loop outright.
BLOCKING_PREFIXES = (
    "time.sleep",
    "socket.",
    "subprocess.",
    "os.system",
    "os.popen",
    "os.wait",
    "requests.",
    "urllib.request.",
    "shutil.",
)

#: bare builtins that do console / file I/O.
BLOCKING_BUILTINS = frozenset({"open", "input", "print"})

#: method names that block regardless of receiver.
BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: cold paths: constrained admission / rewrite construction can take
#: seconds; async code must reach them through ``run_in_executor``.
COLD_REWRITE_METHODS = frozenset({"admission", "_prepared"})

_STD_STREAMS = frozenset({"stdin", "stdout", "stderr"})
_STREAM_OPS = frozenset({"read", "readline", "readlines", "write", "flush"})


def _is_std_stream_op(func: ast.Attribute) -> bool:
    inner = func.value
    return (
        func.attr in _STREAM_OPS
        and isinstance(inner, ast.Attribute)
        and inner.attr in _STD_STREAMS
        and isinstance(inner.value, ast.Name)
        and inner.value.id == "sys"
    )


class LoopNeverBlocks(Rule):
    id = "LoopNeverBlocks"
    summary = "async def bodies never call blocking primitives"

    def run(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        for source in project.files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    self._check_async(source, node, out)
        return out

    def _check_async(
        self, source: SourceFile, func: ast.AsyncFunctionDef, out: list[Violation]
    ) -> None:
        awaited: set[int] = set()
        body_nodes: list[ast.AST] = []

        def collect(node: ast.AST) -> None:
            body_nodes.append(node)
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                awaited.add(id(node.value))
            for child in ast.iter_child_nodes(node):
                # Nested functions/lambdas run elsewhere (usually shipped to
                # an executor) — they are not part of this coroutine's body.
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    continue
                collect(child)

        for stmt in func.body:
            collect(stmt)

        for node in body_nodes:
            if not isinstance(node, ast.Call):
                continue
            reason = self._blocking_reason(node, source, awaited)
            if reason is not None:
                out.append(
                    Violation(
                        rule=self.id,
                        path=source.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{reason} inside 'async def {func.name}' blocks "
                            f"the event loop; hop to a worker via "
                            f"loop.run_in_executor(...)"
                        ),
                    )
                )

    def _blocking_reason(
        self, call: ast.Call, source: SourceFile, awaited: set[int]
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in BLOCKING_BUILTINS:
                return f"{func.id}() call"
            dotted = source.import_map.get(func.id)
            if dotted is not None:
                for prefix in BLOCKING_PREFIXES:
                    if dotted == prefix.rstrip(".") or dotted.startswith(prefix):
                        return f"{dotted}() call"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        dotted = dotted_name(func, source.import_map)
        if dotted is not None:
            for prefix in BLOCKING_PREFIXES:
                if dotted == prefix.rstrip(".") or dotted.startswith(prefix):
                    return f"{dotted}() call"
        if _is_std_stream_op(func):
            return f"sys.{func.value.attr}.{func.attr}() I/O"
        if func.attr == "acquire" and id(call) not in awaited:
            return "sync .acquire() call"
        if func.attr in BLOCKING_METHODS:
            return f".{func.attr}() file I/O"
        if func.attr in COLD_REWRITE_METHODS:
            return f"cold rewrite path .{func.attr}()"
        return None


# ---------------------------------------------------------------------------
# LockOrder
# ---------------------------------------------------------------------------


class LockOrder(Rule):
    id = "LockOrder"
    summary = "the static lock-acquisition graph stays acyclic"

    def __init__(self) -> None:
        self.graph: LockGraph | None = None

    def run(self, project: Project) -> list[Violation]:
        graph = build_lock_graph(project)
        self.graph = graph
        out: list[Violation] = []
        for cycle in graph.cycles():
            # Anchor the finding at the first edge of the cycle we can find.
            anchor = None
            for src, dst in zip(cycle, cycle[1:]):
                anchor = graph.edges.get((src, dst))
                if anchor is not None:
                    break
            path = anchor.path if anchor else (
                project.files[0].rel if project.files else "<unknown>"
            )
            line = anchor.line if anchor else 0
            out.append(
                Violation(
                    rule=self.id,
                    path=path,
                    line=line,
                    col=0,
                    message=(
                        "lock-acquisition cycle: " + " -> ".join(cycle)
                    ),
                )
            )
        return out


def default_rules() -> list[Rule]:
    return [LockDiscipline(), NoRunUnderLock(), LoopNeverBlocks(), LockOrder()]
