"""RL002 — I/O-accounting contract.

``SimulatedDisk`` read paths charge :class:`DiskStats` exactly once per
page, in scalar order.  That exactness guarantee (the repo's figures
are *counted*, not sampled) only holds if every component outside the
storage layer reaches pages through ``BufferPool`` / ``PageStore``.

This rule flags, in any file outside ``storage/`` (and outside
``tools/``):

* calls to the raw charging/IO methods ``read_page``, ``charge_reads``,
  ``extent_bytes``, ``write_page``, ``write_extent`` on any receiver, and
* attribute access to the private page buffers ``_buf`` / ``_used``.

Deliberate, audited exceptions carry a
``# repro-lint: disable=RL002`` comment explaining why the access does
not double- or under-charge.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.core import (
    Finding,
    Project,
    Rule,
    enclosing_statement_line,
    register_rule,
)

# Shared with RL007's dataflow proof (tools/repro_lint/symbols.py): the
# firewall (this rule) and the reachability proof must agree on what
# "raw" means or a method could pass one and fail the other.
from tools.repro_lint.symbols import RAW_BUFFER_ATTRS, RAW_IO_METHODS

EXEMPT_PATH_PARTS = ("/storage/", "/tools/")


def _exempt(rel: str) -> bool:
    norm = "/" + rel.replace("\\", "/")
    return any(part in norm for part in EXEMPT_PATH_PARTS)


@register_rule
class IoAccounting(Rule):
    id = "RL002"
    name = "io-accounting"
    severity = "error"
    description = (
        "raw SimulatedDisk access (read_page/charge_reads/extent_bytes/"
        "write_page/write_extent/_buf/_used) outside storage/ breaks DiskStats "
        "exactness; "
        "go through BufferPool/PageStore"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for src in project.iter_parsed():
            if _exempt(src.rel):
                continue
            assert src.tree is not None
            for node in ast.walk(src.tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in RAW_IO_METHODS:
                        yield self.finding(
                            src,
                            node.lineno,
                            node.col_offset,
                            f"raw disk call .{node.func.attr}() outside storage/ "
                            "bypasses BufferPool/PageStore accounting",
                            anchor=enclosing_statement_line(node),
                        )
                elif isinstance(node, ast.Attribute) and node.attr in RAW_BUFFER_ATTRS:
                    # Skip self._buf/self._used on non-storage classes only if
                    # they are that class's own fields named identically —
                    # still flag: nothing outside storage/ should own these
                    # names, and a local reuse is cheap to rename or suppress.
                    yield self.finding(
                        src,
                        node.lineno,
                        node.col_offset,
                        f"direct page-buffer access .{node.attr} outside storage/",
                        anchor=enclosing_statement_line(node),
                    )
