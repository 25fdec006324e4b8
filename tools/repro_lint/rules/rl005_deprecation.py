"""RL005 — export firewall.

Keeps ``__all__`` honest in modules that declare one:

* every name listed in ``__all__`` must be defined or imported at
  module top level, and listed once, and
* every public (non-underscore) top-level ``def``/``class`` defined in
  the module must appear in ``__all__`` (imports are exempt — modules
  may re-export selectively).

The second check is a warning: it signals drift, not breakage.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from tools.repro_lint.core import (
    Finding,
    Project,
    Rule,
    SourceFile,
    register_rule,
)

# Shared with the symbol table: one definition of "bound at top level".
from tools.repro_lint.symbols import top_level_names as _top_level_names


def _module_all(tree: ast.Module) -> Optional[ast.Assign]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return stmt
    return None


@register_rule
class DeprecationFirewall(Rule):
    id = "RL005"
    name = "deprecation-firewall"
    severity = "error"
    description = "__all__ must match the names a module defines"

    def check(self, project: Project) -> Iterator[Finding]:
        for src in project.iter_parsed():
            assert src.tree is not None
            yield from self._check_all(src)

    def _check_all(self, src: SourceFile) -> Iterator[Finding]:
        tree = src.tree
        assert tree is not None
        all_assign = _module_all(tree)
        if all_assign is None:
            return
        value = all_assign.value
        if not isinstance(value, (ast.List, ast.Tuple)):
            return
        exported: List[str] = [
            e.value for e in value.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)
        ]
        defined = _top_level_names(tree)
        for name in exported:
            if name not in defined:
                yield self.finding(
                    src,
                    all_assign.lineno,
                    all_assign.col_offset,
                    f"__all__ exports {name!r}, which is not defined or "
                    "imported at module top level",
                )
        exported_set = set(exported)
        for stmt in tree.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and stmt.name not in exported_set
            ):
                yield Finding(
                    rule=self.id,
                    severity="warning",
                    path=src.rel,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    message=(
                        f"public {'class' if isinstance(stmt, ast.ClassDef) else 'function'} "
                        f"{stmt.name!r} is not listed in __all__"
                    ),
                )
        seen: Set[str] = set()
        for name in exported:
            if name in seen:
                yield self.finding(
                    src,
                    all_assign.lineno,
                    all_assign.col_offset,
                    f"__all__ lists {name!r} more than once",
                )
            seen.add(name)
