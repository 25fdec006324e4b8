"""RL010 — blocking-recv discipline for the sharded dispatcher.

PR 9's fault-tolerance contract says ``ShardedEngine.run_batch`` can
never hang on a wedged worker: every blocking pipe wait on the gather
path flows through one supervised chokepoint that arms the per-scatter
deadline (``multiprocessing.connection.wait(conns, timeout)``) before
any ``recv``.  Nothing in the type system enforces that — a future
"quick fix" calling ``conn.recv()`` directly in the dispatch loop
compiles, passes the happy-path tests, and reintroduces the unbounded
hang the supervisor exists to prevent.

RL010 proves the discipline over the shared call graph, mirroring the
RL007 BFS-to-barrier pattern:

    every blocking wait — a ``.recv(...)`` call, or a ``.wait(...)``
    call with no timeout argument — reachable from
    ``ShardedEngine.run_batch`` must sit inside a *deadline barrier*.

A deadline barrier is the audited supervisor chokepoint
(``ShardedEngine._poll_workers``) or any function annotated
``# repro-lint: deadline-wait`` on/above its ``def`` after audit.
Traversal stops at barriers; a blocking wait reached without passing
one is reported with the full witness chain from ``run_batch``.

Worker-side ``recv`` calls are out of scope by construction: the worker
loop is a spawn *target*, not a callee of ``run_batch``, and its idle
``recv`` is supposed to block.  No-op for trees without a
``ShardedEngine.run_batch``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Tuple

from tools.repro_lint.callgraph import call_graph, unguarded_sinks
from tools.repro_lint.core import Finding, Project, Rule, register_rule
from tools.repro_lint.symbols import FunctionInfo, symbol_table

#: ``# repro-lint: deadline-wait`` on/above a ``def`` line: the function
#: is an audited deadline chokepoint — its waits are bounded by the
#: supervisor's timeout arithmetic.
DEADLINE_WAIT_RE = re.compile(r"#\s*repro-lint:\s*deadline-wait\b")

#: (class name, method name) chokepoints trusted without annotation,
#: matched by qualname suffix like RL007's CHARGING_METHODS.
DEADLINE_WAIT_METHODS = frozenset(
    {
        ("ShardedEngine", "_poll_workers"),
    }
)

#: The entry point whose reachable set must honor the discipline.
ENTRY_METHOD = ("ShardedEngine", "run_batch")


def _qualname_matches(qualname: str, pair: Tuple[str, str]) -> bool:
    parts = qualname.rsplit(".", 2)
    if len(parts) < 2:
        return False
    return (parts[-2], parts[-1]) == pair


def _has_timeout_argument(call: ast.Call) -> bool:
    """``wait(conns, 5.0)`` / ``wait(conns, timeout=...)`` are bounded."""
    if len(call.args) >= 2:
        return True
    return any(kw.arg == "timeout" for kw in call.keywords)


def _blocking_wait_lines(fn_node: ast.AST) -> List[Tuple[int, str]]:
    """(line, description) for every blocking-wait call in a function.

    ``.recv(...)`` blocks until the peer writes or dies — unbounded
    unless a deadline-armed ``wait`` proved readability first.  A
    ``.wait(...)`` with no timeout argument blocks outright.
    """
    out: List[Tuple[int, str]] = []
    for node in ast.walk(fn_node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "recv":
            out.append((node.lineno, ".recv()"))
        elif node.func.attr == "wait" and not _has_timeout_argument(node):
            out.append((node.lineno, ".wait() without a timeout"))
    return sorted(out)


def _is_deadline_barrier(fn: FunctionInfo) -> bool:
    if any(_qualname_matches(fn.qualname, pair) for pair in DEADLINE_WAIT_METHODS):
        return True
    line = fn.node.lineno
    comment = fn.file.comment_in_range(max(1, line - 2), line)
    return bool(DEADLINE_WAIT_RE.search(comment))


@register_rule
class RecvDeadlineDiscipline(Rule):
    id = "RL010"
    name = "recv-deadline-discipline"
    severity = "error"
    description = (
        "every blocking pipe wait reachable from ShardedEngine.run_batch "
        "must flow through the supervised deadline chokepoint"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        table = symbol_table(project)
        entries = [
            fn
            for qualname, fn in table.functions.items()
            if _qualname_matches(qualname, ENTRY_METHOD)
        ]
        if not entries:
            return  # nothing to prove without the supervised entry point
        graph = call_graph(project)
        barriers = {
            qualname
            for qualname, fn in table.functions.items()
            if _is_deadline_barrier(fn)
        }
        for fn, (line, what), chain in unguarded_sinks(
            graph, [fn.qualname for fn in entries], barriers, _blocking_wait_lines
        ):
            yield self.finding(
                fn.file,
                line,
                0,
                "unbounded blocking wait on the supervised gather path: "
                + " -> ".join(chain)
                + f" reaches {what} without flowing through the deadline "
                "chokepoint (ShardedEngine._poll_workers); route the wait "
                "through the supervisor or annotate an audited helper "
                "with `# repro-lint: deadline-wait`",
            )
