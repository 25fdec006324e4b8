"""RL001 — lock discipline.

A field assigned in ``__init__`` with a trailing ``# guarded_by: <lock>``
comment may only be read or written:

* inside a ``with self.<lock>:`` block (any enclosing ``with`` whose
  context expression is exactly ``self.<lock>``), or
* inside a method annotated ``# repro-lint: holds=<lock>`` on the
  ``def`` line (or the comment line directly above the ``def`` /
  first decorator), or
* inside ``__init__`` itself (construction happens before the object
  escapes to other threads).

Only the disk declares guarded fields: it is the one object several stores
and engines share, so its buffer, counters and durable-file state stay
under its own lock.  Everything above it runs under its engine's lock
(``ReachabilityEngine.lock``) and declares none.

The declaration comment may name the lock as ``_lock`` or
``self._lock``.  Multiple locks can be stacked by separating holds
annotations with commas: ``# repro-lint: holds=_lock,_other_lock``.

Guarded fields and holds annotations come from the shared symbol table
(:mod:`tools.repro_lint.symbols`).  This is a purely intra-class analysis: accesses through other objects
(``other._field``) and aliased locks (``lk = self._lock; with lk:``)
are out of scope by design — the codebase does not use those shapes
for guarded fields, and the annotations in src/repro keep it that way.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from tools.repro_lint.core import (
    Finding,
    Project,
    Rule,
    SourceFile,
    ancestors,
    enclosing_statement_line,
    register_rule,
)
from tools.repro_lint.symbols import HOLDS_RE, ClassInfo, symbol_table


def _self_attr(node: ast.AST) -> Optional[str]:
    """Return F when *node* is ``self.F``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _held_locks(src: SourceFile, fn: ast.AST) -> Set[str]:
    """Locks declared held via ``# repro-lint: holds=`` on/above a def.

    Used for nested functions, which the symbol table attributes to
    their enclosing method; top-level methods use FunctionInfo.holds.
    """
    decorators = getattr(fn, "decorator_list", [])
    first = decorators[0].lineno if decorators else fn.lineno
    comment = src.comment_in_range(first - 1, fn.lineno)
    held: Set[str] = set()
    for m in HOLDS_RE.finditer(comment):
        for part in m.group(1).split(","):
            held.add(part.strip().removeprefix("self."))
    return held


def _with_locks(node: ast.AST, stop_at: ast.AST) -> Set[str]:
    """Locks held via enclosing ``with self.<lock>:`` blocks between
    *node* and the enclosing function *stop_at*."""
    held: Set[str] = set()
    for anc in ancestors(node):
        if anc is stop_at:
            break
        if isinstance(anc, (ast.With, ast.AsyncWith)):
            for item in anc.items:
                lock = _self_attr(item.context_expr)
                if lock:
                    held.add(lock)
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    return held


def _enclosing_function(node: ast.AST) -> Optional[ast.FunctionDef]:
    for anc in ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return anc  # type: ignore[return-value]
    return None


@register_rule
class LockDiscipline(Rule):
    id = "RL001"
    name = "lock-discipline"
    severity = "error"
    description = (
        "fields declared '# guarded_by: <lock>' must be accessed under "
        "'with self.<lock>:' or in a method annotated "
        "'# repro-lint: holds=<lock>'"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        table = symbol_table(project)
        for cls in table.classes.values():
            if cls.guarded_fields:
                yield from self._check_class(cls)

    def _check_class(self, cls: ClassInfo) -> Iterator[Finding]:
        src = cls.file
        guarded: Dict[str, Tuple[str, int]] = cls.guarded_fields
        for method in cls.methods.values():
            if method.name == "__init__":
                continue
            fn = method.node
            held_by_annotation = set(method.holds)
            for node in ast.walk(fn):
                name = _self_attr(node)
                if name is None or name not in guarded:
                    continue
                lock, _decl_line = guarded[name]
                # Accessing the lock object itself is always fine.
                if name == lock:
                    continue
                enclosing = _enclosing_function(node)
                fn_held = (
                    _held_locks(src, enclosing)
                    if enclosing is not None and enclosing is not fn
                    else held_by_annotation
                )
                if lock in fn_held:
                    continue
                if lock in _with_locks(node, fn):
                    continue
                ctx = getattr(node, "ctx", None)
                verb = "written" if isinstance(ctx, (ast.Store, ast.Del)) else "read"
                yield self.finding(
                    src,
                    node.lineno,
                    node.col_offset,
                    f"self.{name} is guarded by self.{lock} but {verb} in "
                    f"{cls.name}.{fn.name} without holding it",
                    anchor=enclosing_statement_line(node),
                )
