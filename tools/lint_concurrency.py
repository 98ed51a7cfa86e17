#!/usr/bin/env python3
"""Static concurrency lint for ``src/vidb``.

Two classes of finding, both derived purely from the AST (no imports,
no execution):

``blocking-under-write-lock``
    A call that blocks the calling thread (``time.sleep``,
    ``os.fsync``, socket accept/recv/connect, ``Future.result``,
    ``subprocess.run``...) lexically inside a ``with ...write_locked()``
    block.  The executor's write lock excludes *every* reader, so
    blocking while holding it turns one slow call into a service-wide
    stall.

``lock-order-inversion``
    Two locks are acquired in opposite orders on different code paths.
    Nested ``with`` acquisitions inside each function contribute
    ``outer -> inner`` edges to a per-class lock graph; a cycle in that
    graph is the classic ABBA deadlock shape.  Lock identity is the
    source text of the ``with`` expression (e.g. ``self._lock``)
    qualified by the enclosing class, so same-named locks of unrelated
    classes are never conflated.

Findings are suppressed by ``tools/concurrency_allowlist.txt``; each
non-comment line is ``<relpath>::<qualname>::<rule>`` naming a function
whose finding of that rule is intentional.  Exit status is 1 when any
unsuppressed finding remains, so CI can gate on it.

Usage::

    python tools/lint_concurrency.py [root ...]   # default: src/vidb
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
DEFAULT_ROOTS = (REPO / "src" / "vidb",)
ALLOWLIST = REPO / "tools" / "concurrency_allowlist.txt"

#: ``with`` expressions that take the *exclusive* (writer) side of a
#: readers-writer lock: attribute-call names on the context manager.
WRITE_LOCK_METHODS = frozenset({"write_locked", "acquire_write"})

#: ``with`` expressions that acquire *some* lock (for ordering edges):
#: plain ``with self._lock:`` / ``with self._cond:`` (a Lock/Condition
#: used as a context manager) plus RW-lock helper calls.
LOCKISH_SUFFIXES = ("lock", "cond", "mutex")
LOCK_METHODS = frozenset({"read_locked", "acquire_read"}) | WRITE_LOCK_METHODS

#: Dotted call names that block the calling thread.
BLOCKING_DOTTED = frozenset({
    "time.sleep",
    "os.fsync",
    "os.fdatasync",
    "subprocess.run",
    "subprocess.check_call",
    "subprocess.check_output",
})

#: Method names that block regardless of the receiver expression.
BLOCKING_METHODS = frozenset({
    "accept", "recv", "recvfrom", "sendall", "connect", "makefile",
    "readline", "result", "join",
})


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` source text of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def lock_name(item: ast.expr) -> Optional[str]:
    """The lock a ``with`` item acquires, or None.

    ``with self._lock:`` -> ``self._lock``;
    ``with self._lock.write_locked():`` -> ``self._lock``.
    """
    if isinstance(item, ast.Call) and isinstance(item.func, ast.Attribute):
        if item.func.attr in LOCK_METHODS:
            return dotted(item.func.value)
        return None
    name = dotted(item)
    if name and name.split(".")[-1].lstrip("_").endswith(LOCKISH_SUFFIXES):
        return name
    return None


def is_write_lock(item: ast.expr) -> bool:
    return (isinstance(item, ast.Call)
            and isinstance(item.func, ast.Attribute)
            and item.func.attr in WRITE_LOCK_METHODS)


def is_blocking_call(node: ast.Call) -> Optional[str]:
    name = dotted(node.func)
    if name in BLOCKING_DOTTED:
        return name
    if isinstance(node.func, ast.Attribute):
        method = node.func.attr
        if method in BLOCKING_METHODS:
            base = dotted(node.func.value) or "..."
            return f"{base}.{method}"
        # ``cond.wait(...)`` blocks, but a Condition releases its own
        # lock while waiting — only flag waits on a *different* lock
        # than the enclosing with (handled by the visitor).
    return None


class Finding:
    def __init__(self, path: Path, line: int, qualname: str, rule: str,
                 message: str):
        self.path = path
        self.line = line
        self.qualname = qualname
        self.rule = rule
        self.message = message

    def _rel(self) -> str:
        try:
            return self.path.relative_to(REPO).as_posix()
        except ValueError:
            return self.path.as_posix()

    def key(self) -> str:
        return f"{self._rel()}::{self.qualname}::{self.rule}"

    def render(self) -> str:
        return f"{self._rel()}:{self.line}: [{self.rule}] {self.message}"


class FunctionVisitor(ast.NodeVisitor):
    """Walks one function body tracking the lexical with-lock stack."""

    def __init__(self, path: Path, qualname: str, class_name: str,
                 findings: List[Finding],
                 edges: Dict[Tuple[str, str], Tuple[Path, int]]):
        self.path = path
        self.qualname = qualname
        self.class_name = class_name
        self.findings = findings
        self.edges = edges
        self.lock_stack: List[str] = []
        self.write_depth = 0

    def _qualify(self, lock: str) -> str:
        return f"{self.class_name}.{lock}" if self.class_name else lock

    def visit_With(self, node: ast.With) -> None:
        self._with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._with(node)

    def _with(self, node) -> None:
        acquired: List[str] = []
        writes = 0
        for item in node.items:
            lock = lock_name(item.context_expr)
            if lock is None:
                continue
            qualified = self._qualify(lock)
            for held in self.lock_stack:
                if held != qualified:
                    self.edges.setdefault((held, qualified),
                                          (self.path, node.lineno))
            self.lock_stack.append(qualified)
            acquired.append(qualified)
            if is_write_lock(item.context_expr):
                self.write_depth += 1
                writes += 1
        for child in node.body:
            self.visit(child)
        for _ in acquired:
            self.lock_stack.pop()
        self.write_depth -= writes

    def visit_Call(self, node: ast.Call) -> None:
        if self.write_depth:
            blocking = is_blocking_call(node)
            if blocking is not None:
                self.findings.append(Finding(
                    self.path, node.lineno, self.qualname,
                    "blocking-under-write-lock",
                    f"{blocking}() may block while holding the write "
                    f"lock (in {self.qualname})"))
        self.generic_visit(node)

    # Nested function definitions get their own visitor (their body does
    # not run while the enclosing with is held).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def iter_functions(tree: ast.Module) -> Iterator[Tuple[str, str, ast.AST]]:
    """Yield ``(qualname, class_name, function_node)`` for every def."""

    def walk(node: ast.AST, prefix: str, class_name: str) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, class_name, child
                yield from walk(child, f"{qual}.", class_name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.",
                                child.name)

    yield from walk(tree, "", "")


def find_cycles(edges: Dict[Tuple[str, str], Tuple[Path, int]]
                ) -> List[Tuple[str, str]]:
    """Pairs (a, b) where both a->b and b->a were recorded (ABBA)."""
    cycles = []
    for (a, b) in edges:
        if (b, a) in edges and a < b:
            cycles.append((a, b))
    return sorted(cycles)


def lint_file(path: Path, findings: List[Finding],
              edges: Dict[Tuple[str, str], Tuple[Path, int]]) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for qualname, class_name, node in iter_functions(tree):
        visitor = FunctionVisitor(path, qualname, class_name, findings,
                                  edges)
        for child in node.body:  # type: ignore[attr-defined]
            visitor.visit(child)


def load_allowlist() -> Set[str]:
    if not ALLOWLIST.exists():
        return set()
    entries = set()
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return entries


def main(argv: List[str]) -> int:
    roots = [Path(arg).resolve() for arg in argv] or list(DEFAULT_ROOTS)
    findings: List[Finding] = []
    edges: Dict[Tuple[str, str], Tuple[Path, int]] = {}
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            lint_file(path, findings, edges)
    for (a, b) in find_cycles(edges):
        path, line = edges[(a, b)]
        findings.append(Finding(
            path, line, "(module)", "lock-order-inversion",
            f"{a} is taken before {b} here, but the opposite order "
            f"exists elsewhere — ABBA deadlock shape"))
    allow = load_allowlist()
    reported = [f for f in findings if f.key() not in allow]
    suppressed = len(findings) - len(reported)
    for finding in reported:
        print(finding.render())
    summary = (f"{len(reported)} finding(s), {suppressed} allowlisted, "
               f"{len(edges)} lock-order edge(s)")
    print(("FAIL: " if reported else "ok: ") + summary)
    return 1 if reported else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
