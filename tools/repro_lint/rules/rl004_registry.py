"""RL004 — executor registry / router completeness.

The executor registry (``@register_executor(kind, name)``) is the
single source of truth for algorithm names.  Three other surfaces refer
to those names and silently rot when they drift: the Router's rule
table (``api/router.py``), the CLI ``--algorithm`` choices
(``cli.py``), and the documented routing tables (``docs/*.md``).  This
rule statically rebuilds the registry and cross-checks all three:

* every module under ``core/executors/`` (except ``__init__``) must
  register at least one executor — an unregistered module is dead code
  the Router can never reach;
* every algorithm literal in ``router.py`` (``decide(...)`` first
  arguments, ``PAPER_ALGORITHMS`` values keyed by kind,
  ``ES_FAMILY`` members, ``ROUTING_TABLE`` route strings) must resolve
  in the registry;
* every CLI ``--algorithm`` must either derive its ``choices`` from
  ``executor_names()`` / use literals that resolve, or (when free-form)
  live in a module that validates via ``has_executor``;
* every algorithm-ish token in the docs (anything containing ``_tbs``
  anywhere; ``es``-family names inside a routing table's ``route``
  column) must resolve.

Docs are scanned as text because they are Markdown; everything else is
AST-based.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

from tools.repro_lint.core import Finding, Project, Rule, SourceFile, register_rule
from tools.repro_lint.symbols import symbol_table

WORD_RE = re.compile(r"[A-Za-z_]\w*")
TBS_TOKEN_RE = re.compile(r"\b[a-z][a-z0-9_]*_tbs(?:_[a-z0-9_]+)?\b")
BACKTICK_RE = re.compile(r"`([^`]+)`")
ES_FAMILY_TOKEN_RE = re.compile(r"^es(?:_[a-z0-9]+)*$")


def _registry(project: Project) -> Tuple[Set[Tuple[str, str]], bool]:
    """(kind, name) pairs registered via @register_executor with constant
    args, plus whether any dynamic (non-constant) registration exists.

    Thin view over the shared symbol table's executor registry — the
    same table the interprocedural rules dispatch through, so RL004 and
    RL007 can never disagree about what is registered.
    """
    table = symbol_table(project)
    pairs = {(reg.kind, reg.name) for reg in table.executors}
    return pairs, bool(table.dynamic_registrations)


def _algorithmish(token: str) -> bool:
    return "_tbs" in token or bool(ES_FAMILY_TOKEN_RE.match(token))


@register_rule
class RegistryCompleteness(Rule):
    id = "RL004"
    name = "registry-completeness"
    severity = "error"
    description = (
        "executor modules must register via @register_executor, and every "
        "algorithm name in the router rule table, CLI --algorithm choices "
        "and docs routing tables must resolve in the registry"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        pairs, dynamic = _registry(project)
        if not pairs:
            # Scanning a tree without the executors package (e.g. a lint of
            # benchmarks/ alone): nothing to cross-check.
            return
        names = {name for _, name in pairs}
        names_by_kind = {}
        for kind, name in pairs:
            names_by_kind.setdefault(kind, set()).add(name)

        yield from self._check_executor_modules(project)
        yield from self._check_router(project, pairs, names, dynamic)
        yield from self._check_cli(project, names, dynamic)
        yield from self._check_docs(project, names, dynamic)

    # -- executors/ modules -------------------------------------------------

    def _check_executor_modules(self, project: Project) -> Iterator[Finding]:
        for src in project.iter_parsed():
            norm = "/" + src.rel.replace("\\", "/")
            if "/core/executors/" not in norm or norm.endswith("__init__.py"):
                continue
            assert src.tree is not None
            registers = any(
                isinstance(dec, ast.Call)
                and (
                    (isinstance(dec.func, ast.Name) and dec.func.id == "register_executor")
                    or (isinstance(dec.func, ast.Attribute) and dec.func.attr == "register_executor")
                )
                for node in ast.walk(src.tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                for dec in node.decorator_list
            )
            if not registers:
                yield self.finding(
                    src,
                    1,
                    0,
                    "executor module registers nothing via @register_executor — "
                    "dead code the Router can never dispatch to",
                )

    # -- router -------------------------------------------------------------

    def _check_router(
        self,
        project: Project,
        pairs: Set[Tuple[str, str]],
        names: Set[str],
        dynamic: bool,
    ) -> Iterator[Finding]:
        src = project.find("api/router.py")
        if src is None or src.tree is None or dynamic:
            return
        tree = src.tree
        for node in ast.walk(tree):
            # decide("<algo>", ...) literals inside Router._auto
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "decide"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                algo = node.args[0].value
                if algo not in names:
                    yield self.finding(
                        src,
                        node.lineno,
                        node.col_offset,
                        f"router routes to unregistered algorithm {algo!r}",
                    )
            # PAPER_ALGORITHMS = {"kind": "name", ...} — kind-aware check
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PAPER_ALGORITHMS" for t in node.targets
            ):
                if isinstance(node.value, ast.Dict):
                    for k, v in zip(node.value.keys, node.value.values):
                        if (
                            isinstance(k, ast.Constant)
                            and isinstance(v, ast.Constant)
                            and (str(k.value), str(v.value)) not in pairs
                        ):
                            yield self.finding(
                                src,
                                v.lineno,
                                v.col_offset,
                                f"PAPER_ALGORITHMS maps kind {k.value!r} to "
                                f"{v.value!r}, which is not registered for that kind",
                            )
            # ES_FAMILY = frozenset({...})
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ES_FAMILY" for t in node.targets
            ):
                for const in ast.walk(node.value):
                    if isinstance(const, ast.Constant) and isinstance(const.value, str):
                        if const.value not in names:
                            yield self.finding(
                                src,
                                const.lineno,
                                const.col_offset,
                                f"ES_FAMILY member {const.value!r} is not a "
                                "registered algorithm",
                            )
            # ROUTING_TABLE route strings (third element of each row)
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ROUTING_TABLE" for t in node.targets
            ):
                value = node.value
                rows = value.elts if isinstance(value, ast.Tuple) else []
                for row in rows:
                    if not (isinstance(row, ast.Tuple) and len(row.elts) == 3):
                        continue
                    route = row.elts[2]
                    if isinstance(route, ast.Constant) and isinstance(route.value, str):
                        for token in WORD_RE.findall(route.value):
                            if _algorithmish(token) and token not in names:
                                yield self.finding(
                                    src,
                                    route.lineno,
                                    route.col_offset,
                                    f"ROUTING_TABLE route mentions {token!r}, "
                                    "which is not a registered algorithm",
                                )

    # -- CLI ----------------------------------------------------------------

    def _check_cli(
        self, project: Project, names: Set[str], dynamic: bool
    ) -> Iterator[Finding]:
        src = project.find("repro/cli.py") or project.find("cli.py")
        if src is None or src.tree is None or dynamic:
            return
        tree = src.tree
        module_text = src.text
        validates_at_runtime = "has_executor(" in module_text
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "--algorithm"
            ):
                continue
            choices_kw = next((kw for kw in node.keywords if kw.arg == "choices"), None)
            if choices_kw is None:
                if not validates_at_runtime:
                    yield self.finding(
                        src,
                        node.lineno,
                        node.col_offset,
                        "--algorithm takes free-form input but the module never "
                        "validates it with has_executor()",
                    )
                continue
            derives = any(
                isinstance(sub, ast.Call)
                and (
                    (isinstance(sub.func, ast.Name) and sub.func.id == "executor_names")
                    or (
                        isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "executor_names"
                    )
                )
                for sub in ast.walk(choices_kw.value)
            )
            literal_choices = [
                c.value
                for c in ast.walk(choices_kw.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ]
            unknown = [c for c in literal_choices if c not in names and c != "auto"]
            if not derives and unknown:
                yield self.finding(
                    src,
                    node.lineno,
                    node.col_offset,
                    f"--algorithm choices include unregistered name(s) "
                    f"{', '.join(repr(u) for u in sorted(unknown))}",
                )
            if not derives and not literal_choices:
                yield self.finding(
                    src,
                    node.lineno,
                    node.col_offset,
                    "--algorithm choices are neither registry-derived "
                    "(executor_names) nor resolvable literals",
                )

    # -- docs ---------------------------------------------------------------

    def _check_docs(
        self, project: Project, names: Set[str], dynamic: bool
    ) -> Iterator[Finding]:
        if dynamic:
            return
        # Only look for docs/ next to (or one level above) the scanned
        # roots — never fall back to the CWD, or linting a fixture tree
        # would cross-check the real repo's docs against fixture registries.
        docs_dir: Optional[Path] = None
        for root in project.roots:
            base = root if root.is_dir() else root.parent
            for candidate in (base / "docs", base.parent / "docs"):
                if candidate.is_dir():
                    docs_dir = candidate
                    break
            if docs_dir:
                break
        if docs_dir is None:
            return
        for md in sorted(docs_dir.glob("*.md")):
            try:
                text = md.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):  # pragma: no cover
                continue
            rel = md.as_posix()
            lines = text.splitlines()
            route_col: Optional[int] = None
            for i, line in enumerate(lines, start=1):
                stripped = line.strip()
                is_table_row = stripped.startswith("|") and stripped.endswith("|")
                if is_table_row:
                    cells = [c.strip() for c in stripped.strip("|").split("|")]
                    headerish = [c.strip("`* ").lower() for c in cells]
                    if "route" in headerish:
                        route_col = headerish.index("route")
                        continue
                else:
                    route_col = None
                # Global: anything containing _tbs must resolve, table or not.
                for token in set(TBS_TOKEN_RE.findall(line)):
                    if token not in names:
                        yield Finding(
                            rule=self.id,
                            severity=self.severity,
                            path=rel,
                            line=i,
                            col=0,
                            message=(
                                f"docs mention algorithm {token!r}, which is "
                                "not registered"
                            ),
                        )
                # Route column: es-family names must resolve too.
                if is_table_row and route_col is not None and route_col < len(cells):
                    if set(c.strip("-: ") for c in cells) <= {""}:
                        continue  # separator row
                    for tick in BACKTICK_RE.findall(cells[route_col]):
                        for token in WORD_RE.findall(tick):
                            # _tbs tokens are covered by the global check above.
                            if "_tbs" in token:
                                continue
                            if _algorithmish(token) and token not in names:
                                yield Finding(
                                    rule=self.id,
                                    severity=self.severity,
                                    path=rel,
                                    line=i,
                                    col=0,
                                    message=(
                                        f"docs routing table routes to "
                                        f"{token!r}, which is not registered"
                                    ),
                                )
    # NOTE: docs findings use Finding() directly because markdown files are
    # not part of the Python Project; suppressions do not apply to them.
