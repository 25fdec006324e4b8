"""RL008 — QueryCost counter drift.

Every cost counter the executors maintain must make it all the way to
the user, and everything the docs promise must exist.  Concretely, for
each field of the ``QueryCost`` dataclass (located via the shared
symbol table; the rule is a no-op for trees without one):

* **rendering** — the field is referenced by at least one rendering
  surface: the ``BatchReport`` body, the CLI module, or the
  ``--explain`` renderer;
* **docs** — the field appears as a backticked token in
  ``docs/api.md``.

Aggregation is not checked: ``QueryCost.merged`` combines costs
generically over ``dataclasses.fields``, so no per-field list exists
that could forget a counter.

And vice versa: the bulleted counter list in ``docs/api.md`` under the
``QueryCost`` section must only name real fields — a doc entry for a
renamed or removed counter is drift, not documentation.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

from tools.repro_lint.core import Finding, Project, Rule, SourceFile, register_rule
from tools.repro_lint.symbols import ClassInfo, symbol_table

BACKTICK_RE = re.compile(r"`([A-Za-z_][A-Za-z0-9_.]*)`")

#: `- `field`` or `- `a` / `b` — ...` bullets in the docs counter list.
DOC_BULLET_RE = re.compile(r"^-\s+(`[a-z_][a-z0-9_]*`(?:\s*/\s*`[a-z_][a-z0-9_]*`)*)\s")


def _dataclass_fields(cls: ClassInfo) -> List[Tuple[str, int]]:
    out: List[Tuple[str, int]] = []
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            out.append((stmt.target.id, stmt.lineno))
    return out


def _attribute_names(node: ast.AST) -> Set[str]:
    return {
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
    } | {
        kw.arg
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
        for kw in sub.keywords
        if kw.arg is not None
    }


def _docs_file(project: Project, name: str) -> Optional[Path]:
    seen: Set[Path] = set()
    for root in project.roots:
        base = root if root.is_dir() else root.parent
        for candidate in (base / "docs" / name, base.parent / "docs" / name):
            if candidate in seen:
                continue
            seen.add(candidate)
            if candidate.is_file():
                return candidate
    return None


def _module_file(project: Project, *suffixes: str) -> Optional[SourceFile]:
    for suffix in suffixes:
        found = project.find(suffix)
        if found is not None:
            return found
    return None


def _doc_cost_tokens(text: str) -> List[Tuple[str, int]]:
    """Backticked leading tokens of the QueryCost bullet list in api.md."""
    lines = text.splitlines()
    anchor = None
    for i, line in enumerate(lines):
        if "QueryCost" in line and "`" in line:
            anchor = i
            break
    if anchor is None:
        return []
    out: List[Tuple[str, int]] = []
    for i in range(anchor, len(lines)):
        line = lines[i]
        if line.startswith("## ") and i > anchor:
            break
        match = DOC_BULLET_RE.match(line.strip())
        if match:
            for token in BACKTICK_RE.findall(match.group(1)):
                out.append((token, i + 1))
    return out


@register_rule
class CounterDrift(Rule):
    id = "RL008"
    name = "counter-drift"
    severity = "error"
    description = (
        "every QueryCost field must be rendered (BatchReport rows/CLI/--explain) "
        "and documented (docs/api.md) — and vice versa"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        table = symbol_table(project)
        cost_candidates = [
            cls
            for cls in table.classes_by_name.get("QueryCost", [])
            if cls.module.endswith("core.query") or len(table.classes_by_name.get("QueryCost", [])) == 1
        ]
        if not cost_candidates:
            return
        cost = cost_candidates[0]
        fields = _dataclass_fields(cost)
        if not fields:
            return
        field_names = {name for name, _ in fields}

        report_candidates = table.classes_by_name.get("BatchReport", [])
        report = report_candidates[0] if report_candidates else None
        cli = _module_file(project, "repro/cli.py")
        explain = _module_file(project, "core/explain.py")

        render_attrs: Optional[Set[str]] = None
        render_sources = []
        if report is not None:
            render_sources.append(report.node)
        for sf in (cli, explain):
            if sf is not None and sf.tree is not None:
                render_sources.append(sf.tree)
        if render_sources:
            render_attrs = set()
            for node in render_sources:
                render_attrs |= _attribute_names(node)

        doc_path = _docs_file(project, "api.md")
        doc_text = doc_path.read_text(encoding="utf-8") if doc_path else None
        doc_tokens = set(BACKTICK_RE.findall(doc_text)) if doc_text else None
        doc_token_tails = (
            {t.rsplit(".", 1)[-1] for t in doc_tokens} if doc_tokens else None
        )

        for name, line in fields:
            if render_attrs is not None and name not in render_attrs:
                yield self.finding(
                    cost.file,
                    line,
                    0,
                    f"QueryCost.{name} is never rendered (BatchReport rows, "
                    "CLI, or --explain must surface it)",
                )
            if doc_token_tails is not None and name not in doc_token_tails:
                yield self.finding(
                    cost.file,
                    line,
                    0,
                    f"QueryCost.{name} is undocumented in docs/api.md",
                )

        if doc_text is not None:
            for token, doc_line in _doc_cost_tokens(doc_text):
                if token not in field_names:
                    yield self.finding(
                        cost.file,
                        1,
                        0,
                        f"docs/api.md line {doc_line} documents cost counter "
                        f"`{token}` which is not a QueryCost field",
                    )
