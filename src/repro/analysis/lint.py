"""Repo-specific Python-AST lint rules (``python -m repro.analysis --lint``).

Generic linters cannot know this codebase's contracts; these rules encode
the four that have bitten (or nearly bitten) before:

* ``relation-version`` — a function that mutates a ``Relation``'s row
  storage (``_rows`` / ``_row_set``) must bump ``_version`` on the same
  path: the statistics catalog and the plan cache both invalidate by
  version polling, so a silent mutation serves stale plans forever.
* ``locked-state`` — methods of ``MetricsRegistry`` / ``StatisticsCatalog``
  / ``PlanCache`` must touch their private state only under ``self._lock``
  (these objects are shared across the async service's worker threads).
* ``async-blocking`` — coroutines in ``repro.service`` must not call
  blocking primitives (``time.sleep``, synchronous file I/O,
  ``subprocess``): one blocked coroutine stalls the whole event loop.
* ``watch-release`` — a module that registers ``Relation.watch`` hooks
  must also call ``unwatch`` somewhere: an unreleased hook pins the
  watcher (and its engine) for the relation's lifetime.

Findings are compared against a checked-in baseline
(``lint_baseline.json`` next to this module): pre-existing violations are
tolerated, *new* ones fail CI.  Baseline identity is ``(rule, path,
symbol)`` — line numbers are deliberately excluded so unrelated edits
don't churn the baseline.
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Mutable state per lock-guarded class: these attributes must only be
#: touched under ``self._lock``.  Immutable configuration set once in
#: ``__init__`` (sample sizes, backend kinds) is deliberately not listed.
LOCKED_CLASSES = {
    "MetricsRegistry": ("_metrics",),
    "StatisticsCatalog": ("_entries", "_watchers", "_unwatch"),
    "PlanCache": ("_entries",),
}

#: Mutating method calls on ``_rows`` / ``_row_set`` that require a bump.
MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "add", "discard", "update"}
)

#: Call patterns that block the event loop inside a coroutine.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.socket",
        "urllib.request.urlopen",
    }
)

#: Blocking method names on arbitrary receivers (Path I/O, file handles).
BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: The format tag written into baselines and reports.
BASELINE_FORMAT = "repro-lint-baseline/1"
REPORT_FORMAT = "repro-lint-report/1"

#: Default baseline location: checked in next to this module.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "lint_baseline.json"


@dataclass(frozen=True)
class Violation:
    """One lint finding."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across unrelated line churn."""
        return (self.rule, self.path, self.symbol)

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.symbol}: {self.message}"


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_self_attribute(node: ast.AST, names: Iterable[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in set(names)
    )


def _functions(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """All (qualified name, function node) pairs, including methods."""
    found: List[Tuple[str, ast.AST]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                found.append((name, child))
                walk(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


# --------------------------------------------------------------------------- #
# Rule implementations (each: (tree, relative path) -> violations)
# --------------------------------------------------------------------------- #


def check_relation_version(tree: ast.Module, path: str) -> List[Violation]:
    violations: List[Violation] = []
    for symbol, function in _functions(tree):
        if symbol.rsplit(".", 1)[-1] == "__init__":
            continue  # constructors initialize storage; version starts fresh
        mutation: Optional[ast.AST] = None
        bumps_version = False
        for node in ast.walk(function):
            # receiver._rows.append(...) / receiver._row_set.add(...)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in ("_rows", "_row_set")
            ):
                mutation = mutation or node
            # receiver._rows = ... (rebinding the storage wholesale)
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr in (
                        "_rows",
                        "_row_set",
                    ):
                        mutation = mutation or node
                    if isinstance(target, ast.Attribute) and target.attr == "_version":
                        bumps_version = True
        if mutation is not None and not bumps_version:
            violations.append(
                Violation(
                    rule="relation-version",
                    path=path,
                    line=getattr(mutation, "lineno", 1),
                    symbol=symbol,
                    message=(
                        "mutates Relation row storage without bumping _version "
                        "on the same path (version polling will serve stale "
                        "statistics and cached plans)"
                    ),
                )
            )
    return violations


def check_locked_state(tree: ast.Module, path: str) -> List[Violation]:
    violations: List[Violation] = []

    def scan(
        node: ast.AST,
        guarded: Tuple[str, ...],
        locked: bool,
        findings: Set[Tuple[int, str]],
    ) -> None:
        if isinstance(node, ast.With):
            holds = any(
                _is_self_attribute(item.context_expr, ("_lock",))
                for item in node.items
            )
            for body_node in node.body:
                scan(body_node, guarded, locked or holds, findings)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested callback runs later, outside the caller's lock.
            body = node.body if isinstance(node.body, list) else [node.body]
            for body_node in body:
                scan(body_node, guarded, False, findings)
            return
        if isinstance(node, ast.Call):
            # ``self._helper(...)``: the func attribute is a bound method,
            # not state — the helper is checked on its own.  Anything
            # deeper (``self._entries.get(...)``, call arguments) still is.
            is_bound_method = (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            )
            if not is_bound_method:
                scan(node.func, guarded, locked, findings)
            for argument in list(node.args) + [kw.value for kw in node.keywords]:
                scan(argument, guarded, locked, findings)
            return
        if not locked and _is_self_attribute(node, guarded):
            findings.add((node.lineno, node.attr))
            return
        for child in ast.iter_child_nodes(node):
            scan(child, guarded, locked, findings)

    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef) or class_node.name not in LOCKED_CLASSES:
            continue
        guarded = LOCKED_CLASSES[class_node.name]
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # construction happens-before sharing
            findings: Set[Tuple[int, str]] = set()
            scan(method, guarded, False, findings)
            if findings:
                first_line = min(line for line, _ in findings)
                attrs = sorted({attr for _, attr in findings})
                violations.append(
                    Violation(
                        rule="locked-state",
                        path=path,
                        line=first_line,
                        symbol=f"{class_node.name}.{method.name}",
                        message=(
                            f"touches {', '.join(attrs)} outside `with self._lock` "
                            "(shared across service worker threads)"
                        ),
                    )
                )
    return violations


def check_async_blocking(tree: ast.Module, path: str) -> List[Violation]:
    if "/service/" not in path.replace("\\", "/"):
        return []
    violations: List[Violation] = []

    def scan(node: ast.AST, symbol: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs run in their own context
            if isinstance(child, ast.Call):
                dotted = _dotted_name(child.func)
                blocking = (
                    (dotted is not None and dotted in BLOCKING_CALLS)
                    or (isinstance(child.func, ast.Name) and child.func.id == "open")
                    or (
                        isinstance(child.func, ast.Attribute)
                        and child.func.attr in BLOCKING_METHODS
                    )
                )
                if blocking:
                    label = dotted or getattr(
                        child.func, "attr", getattr(child.func, "id", "call")
                    )
                    violations.append(
                        Violation(
                            rule="async-blocking",
                            path=path,
                            line=child.lineno,
                            symbol=symbol,
                            message=(
                                f"blocking call {label}() inside a coroutine — "
                                "use asyncio.to_thread or an async equivalent"
                            ),
                        )
                    )
            scan(child, symbol)

    for symbol, function in _functions(tree):
        if isinstance(function, ast.AsyncFunctionDef):
            for statement in function.body:
                scan(statement, symbol)
    return violations


def check_watch_release(tree: ast.Module, path: str) -> List[Violation]:
    normalized = path.replace("\\", "/")
    if normalized.endswith("relational/relation.py"):
        return []  # defines watch/unwatch; pairing is the caller's duty
    watch_calls: List[ast.Call] = []
    has_unwatch = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "watch":
                watch_calls.append(node)
            elif node.func.attr == "unwatch":
                has_unwatch = True
    if watch_calls and not has_unwatch:
        first = watch_calls[0]
        return [
            Violation(
                rule="watch-release",
                path=path,
                line=first.lineno,
                symbol="<module>",
                message=(
                    "registers Relation.watch hooks but never calls unwatch — "
                    "the hook pins its watcher for the relation's lifetime"
                ),
            )
        ]
    return []


RULES = (
    check_relation_version,
    check_locked_state,
    check_async_blocking,
    check_watch_release,
)


# --------------------------------------------------------------------------- #
# Running + baseline workflow
# --------------------------------------------------------------------------- #


def default_root() -> Path:
    """The installed ``repro`` package directory (lint scans the source)."""
    return Path(__file__).resolve().parent.parent


def run_lint(root: Optional[Path] = None) -> List[Violation]:
    """Run every rule over all ``.py`` files under ``root``; sorted findings."""
    root = (root or default_root()).resolve()
    violations: List[Violation] = []
    for source in sorted(root.rglob("*.py")):
        relative = source.relative_to(root.parent).as_posix()
        try:
            tree = ast.parse(source.read_text(encoding="utf-8"))
        except SyntaxError as error:  # pragma: no cover - the suite would fail first
            violations.append(
                Violation("parse-error", relative, error.lineno or 1, "<module>", str(error))
            )
            continue
        for rule in RULES:
            violations.extend(rule(tree, relative))
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


def load_baseline(path: Optional[Path] = None) -> Set[Tuple[str, str, str]]:
    """The accepted violation keys (empty when no baseline exists yet)."""
    path = path or DEFAULT_BASELINE
    if not path.exists():
        return set()
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {
        (entry["rule"], entry["path"], entry["symbol"])
        for entry in payload.get("violations", [])
    }


def write_baseline(violations: Sequence[Violation], path: Optional[Path] = None) -> Path:
    path = path or DEFAULT_BASELINE
    payload = {
        "format": BASELINE_FORMAT,
        "violations": [
            {"rule": v.rule, "path": v.path, "symbol": v.symbol}
            for v in sorted(violations, key=lambda v: v.key())
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def split_by_baseline(
    violations: Sequence[Violation], baseline: Set[Tuple[str, str, str]]
) -> Tuple[List[Violation], List[Violation]]:
    """``(new, baselined)`` partition of the findings."""
    new: List[Violation] = []
    known: List[Violation] = []
    for violation in violations:
        (known if violation.key() in baseline else new).append(violation)
    return new, known


def build_report(
    violations: Sequence[Violation], baseline: Set[Tuple[str, str, str]]
) -> Dict[str, object]:
    """The ``LINT_report.json`` payload CI uploads as an artifact."""
    new, known = split_by_baseline(violations, baseline)
    return {
        "format": REPORT_FORMAT,
        "total": len(violations),
        "new": [asdict(v) for v in new],
        "baselined": [asdict(v) for v in known],
        "rules": sorted({rule.__name__ for rule in RULES}),
    }
