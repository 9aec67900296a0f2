"""Core machinery for the concurrency-contract analyzer.

This module owns everything rule-agnostic: loading source files, parsing
``# repro: allow(Rule)`` suppression comments, extracting the annotation
model (``GUARDED_BY`` maps, ``@guarded_by`` / ``@acquires`` decorators) from
class bodies, and the lexical lock-region walker that rules build on.

The analysis is deliberately *lexical*: a lock is "held" at a node when the
node sits inside a ``with self._lock:`` (or ``with self._rw.read()`` /
``.write()``) statement, or inside a method declared ``@guarded_by``.  Nested
``def`` / ``lambda`` bodies reset the held set — a closure generally runs on
another thread or at another time, so it cannot inherit the caller's locks.
Manual ``.acquire()`` / ``.release()`` pairs are out of scope (the engine
uses ``with`` blocks throughout).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .annotations import MUTATE_SUFFIX

# ---------------------------------------------------------------------------
# Violations and suppressions.
# ---------------------------------------------------------------------------

#: Meta rule ids emitted by the engine itself (not registered rules).
BARE_ALLOW = "BareAllow"
UNKNOWN_RULE = "UnknownRule"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)\s*(.*)$")


@dataclass
class Violation:
    """One finding, before or after suppression resolution."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str = ""

    def format(self) -> str:
        tail = f"  [suppressed: {self.justification}]" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}{tail}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


@dataclass
class Allow:
    """A parsed ``# repro: allow(Rule[, Rule]) justification`` comment."""

    line: int
    rules: tuple[str, ...]
    justification: str


def parse_allows(text: str) -> dict[int, Allow]:
    """Find allow comments via tokenize, so string literals never match."""
    allows: dict[int, Allow] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(tok.string)
            if match is None:
                continue
            lineno = tok.start[0]
            rules = tuple(
                r.strip() for r in match.group(1).split(",") if r.strip()
            )
            allows[lineno] = Allow(lineno, rules, match.group(2).strip())
    except tokenize.TokenError:  # unterminated constructs: no comments then
        pass
    return allows


# ---------------------------------------------------------------------------
# Source files and the annotation model.
# ---------------------------------------------------------------------------


@dataclass
class GuardSpec:
    """One ``GUARDED_BY`` entry: which lock, and whether loads are exempt."""

    lock: str
    mutate_only: bool


@dataclass
class MethodInfo:
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    guarded_by: str | None = None
    declared_acquires: tuple[str, ...] = ()


@dataclass
class ClassInfo:
    name: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    guarded: dict[str, GuardSpec] = field(default_factory=dict)
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    init_assigns: frozenset[str] = frozenset()

    def lock_names(self) -> set[str]:
        names = {spec.lock for spec in self.guarded.values()}
        for method in self.methods.values():
            if method.guarded_by:
                names.add(method.guarded_by)
        return names


@dataclass
class SourceFile:
    path: Path
    rel: str
    text: str
    lines: list[str]
    tree: ast.Module
    allows: dict[int, Allow]
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    import_map: dict[str, str] = field(default_factory=dict)


def _decorator_call(dec: ast.expr, name: str) -> ast.Call | None:
    if isinstance(dec, ast.Call):
        func = dec.func
        if isinstance(func, ast.Name) and func.id == name:
            return dec
        if isinstance(func, ast.Attribute) and func.attr == name:
            return dec
    return None


def _str_args(call: ast.Call) -> tuple[str, ...]:
    out = []
    for arg in call.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append(arg.value)
    return tuple(out)


def _parse_guarded_map(node: ast.expr) -> dict[str, GuardSpec]:
    guarded: dict[str, GuardSpec] = {}
    if not isinstance(node, ast.Dict):
        return guarded
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
            continue
        spec = value.value
        mutate = spec.endswith(MUTATE_SUFFIX)
        lock = spec[: -len(MUTATE_SUFFIX)] if mutate else spec
        guarded[key.value] = GuardSpec(lock=lock, mutate_only=mutate)
    return guarded


def _collect_init_assigns(cls: ast.ClassDef) -> frozenset[str]:
    names: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    names.add(node.attr)
    return frozenset(names)


def _collect_class(cls: ast.ClassDef) -> ClassInfo:
    bases = tuple(
        base.id if isinstance(base, ast.Name) else base.attr
        for base in cls.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    )
    info = ClassInfo(name=cls.name, node=cls, bases=bases)
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "GUARDED_BY":
                    info.guarded.update(_parse_guarded_map(stmt.value))
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            if (
                isinstance(target, ast.Name)
                and target.id == "GUARDED_BY"
                and stmt.value is not None
            ):
                info.guarded.update(_parse_guarded_map(stmt.value))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = MethodInfo(name=stmt.name, node=stmt)
            for dec in stmt.decorator_list:
                call = _decorator_call(dec, "guarded_by")
                if call is not None:
                    args = _str_args(call)
                    if args:
                        method.guarded_by = args[0]
                call = _decorator_call(dec, "acquires")
                if call is not None:
                    method.declared_acquires = _str_args(call)
            info.methods[stmt.name] = method
    info.init_assigns = _collect_init_assigns(cls)
    return info


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def load_source_file(path: Path, root: Path | None = None) -> SourceFile:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    try:
        rel = str(path.relative_to(root)) if root else str(path)
    except ValueError:
        rel = str(path)
    source = SourceFile(
        path=path,
        rel=rel,
        text=text,
        lines=text.splitlines(),
        tree=tree,
        allows=parse_allows(text),
        import_map=_collect_imports(tree),
    )
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            source.classes[node.name] = _collect_class(node)
    return source


# ---------------------------------------------------------------------------
# Project model: every analyzed file plus a cross-file class registry.
# ---------------------------------------------------------------------------


@dataclass
class Project:
    files: list[SourceFile]
    classes: dict[str, list[tuple[SourceFile, ClassInfo]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for source in self.files:
            for info in source.classes.values():
                self.classes.setdefault(info.name, []).append((source, info))

    def class_info(self, name: str) -> ClassInfo | None:
        entries = self.classes.get(name)
        return entries[0][1] if entries else None

    def effective_guarded(self, info: ClassInfo) -> dict[str, GuardSpec]:
        """GUARDED_BY entries merged down the (project-known) base chain."""
        merged: dict[str, GuardSpec] = {}
        seen: set[str] = set()

        def visit(cls: ClassInfo) -> None:
            if cls.name in seen:
                return
            seen.add(cls.name)
            for base in cls.bases:
                parent = self.class_info(base)
                if parent is not None:
                    visit(parent)
            merged.update(cls.guarded)

        visit(info)
        return merged

    def resolve_method(self, info: ClassInfo, name: str) -> MethodInfo | None:
        """Find ``name`` on the class or its project-known bases."""
        for cls in self._lineage(info):
            if name in cls.methods:
                return cls.methods[name]
        return None

    def subclasses_or_self(self, name: str) -> list[ClassInfo]:
        """``name`` plus every project class that (transitively) inherits it."""
        # Preserve declaration order, dedupe by name.
        unique: dict[str, ClassInfo] = {}
        for entries in self.classes.values():
            for _, info in entries:
                if any(
                    cls.name == name or name in cls.bases
                    for cls in self._lineage(info)
                ):
                    unique.setdefault(info.name, info)
        return list(unique.values())

    def lock_owners(self, info: ClassInfo, attr: str) -> list[str]:
        """Qualified ``Class.attr`` names for a lock acquired via ``self.attr``.

        A base class's ``with self._rewrite_lock`` may run on any subclass
        whose own or inherited ``__init__`` creates the lock, and a lock an
        inherited ``__init__`` creates is witnessed under the concrete class
        that runs it (``type(self).__name__``); qualify with the most derived
        of those classes so the static graph nodes line up with runtime
        witness names.
        """
        creators = [
            cls
            for cls in self.subclasses_or_self(info.name)
            if any(attr in base.init_assigns for base in self._lineage(cls))
        ]
        bases = {base.name for cls in creators for base in self._lineage(cls)[1:]}
        owners = [cls.name for cls in creators if cls.name not in bases]
        if not owners:
            owners = [info.name]
        return [f"{owner}.{attr}" for owner in owners]

    def _lineage(self, info: ClassInfo) -> list[ClassInfo]:
        """``info`` followed by its project-known bases, transitively."""
        lineage: list[ClassInfo] = []
        seen: set[str] = set()
        stack = [info]
        while stack:
            cls = stack.pop()
            if cls.name in seen:
                continue
            seen.add(cls.name)
            lineage.append(cls)
            for base in cls.bases:
                parent = self.class_info(base)
                if parent is not None:
                    stack.append(parent)
        return lineage


# ---------------------------------------------------------------------------
# Lexical lock regions.
# ---------------------------------------------------------------------------

EXCLUSIVE = "exclusive"
SHARED = "shared"


@dataclass(frozen=True)
class HeldLock:
    attr: str
    mode: str
    site: ast.expr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HeldLock({self.attr}, {self.mode})"


def classify_lock_expr(expr: ast.expr, known_locks: set[str]) -> HeldLock | None:
    """Classify a ``with`` item as a lock acquisition, or ``None``.

    Recognized shapes: ``self.X`` (exclusive), ``self.X.read()`` (shared),
    ``self.X.write()`` (exclusive) — where ``X`` either appears in the
    class's declared lock set or contains ``lock`` in its name.
    """

    def is_lock_attr(name: str) -> bool:
        return name in known_locks or "lock" in name.lower()

    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and is_lock_attr(expr.attr)
    ):
        return HeldLock(expr.attr, EXCLUSIVE, expr)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        func = expr.func
        inner = func.value
        if (
            func.attr in ("read", "write")
            and isinstance(inner, ast.Attribute)
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "self"
            and is_lock_attr(inner.attr)
        ):
            mode = SHARED if func.attr == "read" else EXCLUSIVE
            return HeldLock(inner.attr, mode, expr)
    return None


class LockWalker:
    """Visitor interface for :func:`walk_function`."""

    def on_node(self, node: ast.AST, held: tuple[HeldLock, ...]) -> None:
        """Called for every node, with the locks lexically held there."""

    def on_acquire(
        self, lock: HeldLock, held: tuple[HeldLock, ...], site: ast.expr
    ) -> None:
        """Called when a ``with`` item acquires ``lock`` while ``held``."""


def _seed_for(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    info: ClassInfo | None,
) -> tuple[HeldLock, ...]:
    if info is None or isinstance(func, ast.Lambda):
        return ()
    method = info.methods.get(func.name)
    if method is not None and method.guarded_by:
        return (HeldLock(method.guarded_by, EXCLUSIVE, func),)
    return ()


def walk_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    known_locks: set[str],
    walker: LockWalker,
    info: ClassInfo | None = None,
) -> None:
    """Walk ``func`` reporting every node with its lexically-held lock set."""

    def rec(node: ast.AST, held: tuple[HeldLock, ...]) -> None:
        walker.on_node(node, held)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: list[HeldLock] = []
            for item in node.items:
                for sub in ast.walk(item.context_expr):
                    if sub is not item.context_expr:
                        walker.on_node(sub, held)
                lock = classify_lock_expr(item.context_expr, known_locks)
                if lock is not None:
                    walker.on_acquire(lock, held, item.context_expr)
                    acquired.append(lock)
                if item.optional_vars is not None:
                    rec(item.optional_vars, held)
            inner = held + tuple(acquired)
            for stmt in node.body:
                rec(stmt, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if node is not func:
                # Decorators and defaults evaluate in the enclosing scope.
                if not isinstance(node, ast.Lambda):
                    for dec in node.decorator_list:
                        rec(dec, held)
                for default in list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]:
                    rec(default, held)
                # The body runs later / elsewhere: reset the held set.
                seed = _seed_for(node, info)
                body = node.body if not isinstance(node, ast.Lambda) else [node.body]
                for stmt in body:
                    rec(stmt, seed)
                return
        for child in ast.iter_child_nodes(node):
            rec(child, held)

    seed = _seed_for(func, info)
    for stmt in func.body:
        rec(stmt, seed)


def iter_functions(
    source: SourceFile,
) -> Iterator[tuple[ClassInfo | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield every (owning class or None, function) pair in the module."""

    def from_body(body: Iterable[ast.stmt], info: ClassInfo | None) -> Iterator:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield info, stmt
            elif isinstance(stmt, ast.ClassDef):
                yield from from_body(stmt.body, source.classes.get(stmt.name))

    yield from from_body(source.tree.body, None)


def callee_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def dotted_name(expr: ast.expr, import_map: dict[str, str]) -> str | None:
    """Resolve ``a.b.c`` through the module's import aliases, else ``None``."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = import_map.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------------
# Driver: run rules over paths, resolve suppressions.
# ---------------------------------------------------------------------------


@dataclass
class Report:
    files: list[SourceFile]
    violations: list[Violation]
    lock_graph: "object | None" = None  # LockGraph, set by analyze_paths

    @property
    def active(self) -> list[Violation]:
        return [v for v in self.violations if not v.suppressed]

    @property
    def suppressed(self) -> list[Violation]:
        return [v for v in self.violations if v.suppressed]


def collect_py_files(paths: Sequence[Path]) -> list[Path]:
    out: list[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            out.append(path)
    return out


def _comment_only(line: str) -> bool:
    stripped = line.strip()
    return stripped.startswith("#")


def apply_suppressions(source: SourceFile, violations: list[Violation]) -> None:
    """Mark violations covered by a justified allow on the same/previous line."""
    for violation in violations:
        for lineno in (violation.line, violation.line - 1):
            allow = source.allows.get(lineno)
            if allow is None:
                continue
            if lineno != violation.line:
                # An allow on the previous line only counts when that line is
                # a standalone comment (not some other statement's trailer).
                idx = lineno - 1
                if idx >= len(source.lines) or not _comment_only(source.lines[idx]):
                    continue
            if violation.rule in allow.rules:
                if allow.justification:
                    violation.suppressed = True
                    violation.justification = allow.justification
                break


def meta_violations(source: SourceFile, known_rules: set[str]) -> list[Violation]:
    """BareAllow / UnknownRule findings for the suppression comments."""
    out: list[Violation] = []
    for allow in source.allows.values():
        if not allow.justification:
            out.append(
                Violation(
                    rule=BARE_ALLOW,
                    path=source.rel,
                    line=allow.line,
                    col=0,
                    message=(
                        "suppression has no justification; write "
                        "'# repro: allow(Rule) <why this is safe>'"
                    ),
                )
            )
        for rule in allow.rules:
            if rule not in known_rules:
                out.append(
                    Violation(
                        rule=UNKNOWN_RULE,
                        path=source.rel,
                        line=allow.line,
                        col=0,
                        message=f"allow() names unknown rule {rule!r}",
                    )
                )
    return out


def analyze_paths(paths: Sequence[Path], rules=None, root: Path | None = None) -> Report:
    from . import rules as rules_mod  # late import: rules depend on core

    if rules is None:
        rules = rules_mod.default_rules()
    files = [load_source_file(p, root=root) for p in collect_py_files(paths)]
    project = Project(files=files)
    known_rules = {rule.id for rule in rules}
    violations: list[Violation] = []
    lock_graph = None
    for rule in rules:
        found = rule.run(project)
        if getattr(rule, "graph", None) is not None:
            lock_graph = rule.graph
        violations.extend(found)
    by_file = {source.rel: source for source in files}
    for violation in violations:
        source = by_file.get(violation.path)
        if source is not None:
            apply_suppressions(source, [violation])
    for source in files:
        violations.extend(meta_violations(source, known_rules))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return Report(files=files, violations=violations, lock_graph=lock_graph)
