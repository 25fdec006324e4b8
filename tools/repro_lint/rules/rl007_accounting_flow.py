"""RL007 — I/O-accounting dataflow proof.

RL002 is a module firewall: raw ``SimulatedDisk`` access methods may
only be *named* inside ``storage/`` (and tools).  That says nothing
about whether a call *path* from query execution to a raw page access
actually charges the read.  RL007 upgrades the contract to a
reachability proof over the shared call graph:

    every path from an executor entry point (the RL004 registry) to a
    function that directly performs a raw page access
    (``.read_page(...)`` / ``.extent_bytes(...)``) must traverse a
    *charging* function first.

A charging function is one of the audited accounting chokepoints
(``BufferPool.get_page``/``get_pages``, ``PageStore.read``,
``SimulatedDisk.charge_reads``), any function that
itself calls one of them (the charge-then-decode pattern), or a function
annotated ``# repro-lint: charged`` after audit (the uncharged
``STIndex.gather_window_columns``, whose returned page-id column its
caller charges through ``get_pages``).  Traversal stops at charging
functions; any raw access reached without passing one is an uncharged
read path, reported with the full call chain from the executor.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from tools.repro_lint.callgraph import CallGraph, call_graph, unguarded_sinks
from tools.repro_lint.core import Finding, Project, Rule, register_rule
from tools.repro_lint.symbols import RAW_READ_METHODS, SymbolTable, symbol_table

#: Raw page *accesses*: reading page bytes out of the simulated disk.
#: The read-side slice of the RL002 raw-I/O contract (symbols.py).
RAW_ACCESS_METHODS = RAW_READ_METHODS

#: (class name, method name) accounting chokepoints.  Matched by
#: resolved callee qualname suffix so fixture trees with same-named
#: classes behave identically.
CHARGING_METHODS = frozenset(
    {
        ("BufferPool", "get_page"),
        ("BufferPool", "get_pages"),
        ("PageStore", "read"),
        ("SimulatedDisk", "charge_reads"),
    }
)


#: Charging method names distinctive enough to trust without resolving
#: the receiver (``read`` alone would match file objects and pipes).
SYNTACTIC_CHARGING_NAMES = frozenset({"get_page", "get_pages", "charge_reads"})


def _is_charging_qualname(qualname: str) -> bool:
    parts = qualname.rsplit(".", 2)
    if len(parts) < 2:
        return False
    return (parts[-2], parts[-1]) in CHARGING_METHODS


def _raw_access_lines(fn_node: ast.AST) -> List[int]:
    out = []
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in RAW_ACCESS_METHODS
        ):
            out.append(node.lineno)
    return sorted(out)


def _charging_barriers(table: SymbolTable, graph: CallGraph) -> Set[str]:
    barriers: Set[str] = set()
    for qualname, fn in table.functions.items():
        if _is_charging_qualname(qualname) or fn.charged:
            barriers.add(qualname)
            continue
        for callee in graph.callees(qualname):
            if _is_charging_qualname(callee):
                barriers.add(qualname)
                break
        else:
            # Untyped receivers miss the resolved-callee check above, so
            # also accept syntactic calls to the *distinctive* charging
            # method names (bare `.read(` is too generic to trust).
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in SYNTACTIC_CHARGING_NAMES
                ):
                    barriers.add(qualname)
                    break
    return barriers


@register_rule
class AccountingFlow(Rule):
    id = "RL007"
    name = "accounting-dataflow"
    severity = "error"
    description = (
        "every call path from an executor to a raw disk page access "
        "must traverse a charging function (pages charged exactly once)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        table = symbol_table(project)
        if not table.executors:
            return  # nothing to prove without entry points
        graph = call_graph(project)
        barriers = _charging_barriers(table, graph)
        entries = [reg.func.qualname for reg in table.executors]
        for fn, line, chain in unguarded_sinks(
            graph, entries, barriers, _raw_access_lines
        ):
            yield self.finding(
                fn.file,
                line,
                0,
                "uncharged disk-read path: "
                + " -> ".join(chain)
                + " reaches a raw page access without traversing a "
                "charging function (BufferPool.get_page(s)/PageStore."
                "read(_many)/SimulatedDisk.charge_reads); route the read "
                "through the buffer pool or annotate an audited helper "
                "with `# repro-lint: charged`",
            )
