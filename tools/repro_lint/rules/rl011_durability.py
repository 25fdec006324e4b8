"""RL011 — durability-discipline dataflow proof.

The durable storage tier promises that every byte it writes to the real
filesystem is crash-safe: snapshot files go through ``atomic_replace``
(write temp -> fsync -> rename -> fsync dir) and journal appends go
through ``FileBackedDisk._journal_append_locked`` (append -> fsync,
torn-tail recovery on replay).  A later edit that "just writes the
file" — ``path.write_bytes(...)``, ``open(p, "wb")`` — silently
reintroduces the torn-write windows the whole tier exists to close, and
no test notices until a crash lands inside one.

RL011 turns the promise into an RL007-style reachability proof over the
shared call graph:

    every path from a durable-write entry point (``save_store``,
    ``FileBackedDisk.commit`` / ``checkpoint`` / ``compact``,
    ``STIndex.append_trajectories`` / ``ReachabilityEngine
    .append_trajectories``) to a raw file-write sink must traverse a
    durability barrier first.

A barrier is a function annotated ``# repro-lint: durable-barrier``
after audit (the shipped ones: ``atomic_replace``, the journal append,
and the journal-replay tail truncate, whose only write is an idempotent
recovery trim).  Sinks are the syntactic forms that put bytes on disk:
``open(..., <literal write/append mode>)``, ``os.open``, ``Path
.write_bytes`` / ``.write_text``, and ``os.write`` / ``os.pwrite`` /
``os.truncate`` / ``os.ftruncate``.  ``os.replace`` is *not* a sink —
atomic rename is precisely the primitive the barriers are built from.
Any sink reached without passing a barrier is reported with the full
witness chain from the entry point.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple

from tools.repro_lint.callgraph import call_graph, unguarded_sinks
from tools.repro_lint.core import Finding, Project, Rule, register_rule
from tools.repro_lint.symbols import FunctionInfo, SymbolTable, symbol_table

#: ``# repro-lint: durable-barrier`` on/above a ``def``: the function is
#: an audited crash-safe write chokepoint; traversal stops here.
DURABLE_BARRIER_RE = re.compile(r"#\s*repro-lint:\s*durable-barrier\b")

#: (class name, method name) durable-write entry points, matched by
#: resolved qualname suffix like RL007's charging methods.
ENTRY_METHODS = frozenset(
    {
        ("STIndex", "append_trajectories"),
        ("ReachabilityEngine", "append_trajectories"),
        ("FileBackedDisk", "commit"),
        ("FileBackedDisk", "checkpoint"),
        ("FileBackedDisk", "compact"),
    }
)

#: Module-level durable-write entry functions (any module: fixture trees
#: keep their layout).  ``save_dataset`` is deliberately absent — the
#: dataset builder is a one-shot offline artifact, not the durable tier.
ENTRY_FUNCTIONS = frozenset({"save_store"})

#: ``os.<name>`` calls that put bytes on disk.  ``os.replace`` is the
#: atomic primitive itself and deliberately absent.
OS_WRITE_NAMES = frozenset({"open", "write", "pwrite", "truncate", "ftruncate"})

#: ``<obj>.<attr>(...)`` calls that put bytes on disk regardless of the
#: receiver (pathlib's one-shot writers).
PATH_WRITE_ATTRS = frozenset({"write_bytes", "write_text"})


def _is_entry(fn: FunctionInfo) -> bool:
    if fn.cls is None:
        return fn.name in ENTRY_FUNCTIONS
    cls_name = fn.cls.rsplit(".", 1)[-1]
    return (cls_name, fn.name) in ENTRY_METHODS


def _literal_write_mode(call: ast.Call) -> bool:
    """True when ``open(...)`` is called with a literal write/append mode."""
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return False  # absent -> "r"; non-literal -> out of static reach
    return any(ch in mode.value for ch in "wax+")


def _sink_lines(fn_node: ast.AST) -> List[Tuple[int, str]]:
    out: List[Tuple[int, str]] = []
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            if _literal_write_mode(node):
                out.append((node.lineno, "open(..., <write mode>)"))
        elif isinstance(func, ast.Attribute):
            if func.attr in PATH_WRITE_ATTRS:
                out.append((node.lineno, f".{func.attr}(...)"))
            elif (
                isinstance(func.value, ast.Name)
                and func.value.id == "os"
                and func.attr in OS_WRITE_NAMES
            ):
                out.append((node.lineno, f"os.{func.attr}(...)"))
    return sorted(out)


def _comment_block_above(fn: FunctionInfo) -> str:
    """The contiguous comment block directly above a ``def``.

    Wider than the symbol table's one-line window on purpose: barrier
    annotations stack with ``holds=`` lines and prose audit notes.
    """
    node = fn.node
    decorators = getattr(node, "decorator_list", [])
    first = decorators[0].lineno if decorators else node.lineno
    comments = fn.file.comments
    parts: List[str] = []
    line = first - 1
    while line in comments:
        parts.append(comments[line])
        line -= 1
    return " ".join(parts)


def _durable_barriers(table: SymbolTable) -> Set[str]:
    return {
        qualname
        for qualname, fn in table.functions.items()
        if DURABLE_BARRIER_RE.search(_comment_block_above(fn))
    }


@register_rule
class DurabilityFlow(Rule):
    id = "RL011"
    name = "durability-dataflow"
    severity = "error"
    description = (
        "every call path from a durable-write entry point to a raw "
        "file-write sink must traverse an audited durability barrier "
        "(atomic snapshot replace or fsynced journal append)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        table = symbol_table(project)
        entries = [fn for fn in table.functions.values() if _is_entry(fn)]
        if not entries:
            return  # nothing to prove without durable entry points
        graph = call_graph(project)
        barriers = _durable_barriers(table)
        for fn, (line, form), chain in unguarded_sinks(
            graph, sorted(fn.qualname for fn in entries), barriers, _sink_lines
        ):
            yield self.finding(
                fn.file,
                line,
                0,
                "unsafe durable-write path: "
                + " -> ".join(chain)
                + f" reaches a raw file write ({form}) without traversing "
                "a durability barrier; route the write through "
                "atomic_replace / the journal append, or annotate an "
                "audited helper with `# repro-lint: durable-barrier`",
            )
