"""Static call graph over a repro-lint symbol table.

Nodes are the functions and methods of :class:`~tools.repro_lint.symbols.
SymbolTable`; edges are resolved call sites.  Resolution is deliberately
modest — exactly the forms the repro codebase uses — and everything it
cannot resolve is recorded in :attr:`CallGraph.unresolved` rather than
silently dropped, so the proofs built on it can show their blind spots.

Resolved forms:

* ``func(...)`` — module-local functions and imported project functions;
* ``ClassName(...)`` — constructor calls, resolved to ``__init__``
  (through project-resolvable bases when the class defines none);
* ``self.method(...)`` — own class, then bases;
* ``obj.method(...)`` — when ``obj`` is a typed attribute, an annotated
  parameter, or a local assigned from a constructor / annotated call;
* ``executor = get_executor(...); executor(...)`` — registry dispatch,
  fanned out to every statically registered executor (RL004's table);
* name fallback — an untyped receiver whose method name is defined by
  project classes (and is not a common builtin-container method) gets an
  edge to **every** candidate, tagged ``"name"``.

Unresolved (recorded, not traversed): calls through typed receivers
with unknown method names; calls through a parameter or a local variable
(``search(...)`` where ``search`` is an argument: the callee is whatever
the caller passed); and project functions or methods — local or imported —
passed as arguments (the callee decides when, and whether, to run them,
so traversing them would invent call paths that may not happen).  Code
threaded through callables is therefore *visibly* outside the
reachability proofs, never silently so.

Nested ``def``s are attributed to their enclosing named function: a
closure's calls belong to the function that created it for reachability
purposes (the dominant pattern here is ``compute`` callbacks built and
run within one call frame).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from tools.repro_lint.core import Project
from tools.repro_lint.symbols import (
    FunctionInfo,
    SymbolTable,
    annotation_class,
    symbol_table,
)

#: Method names never resolved by name: they collide with builtin
#: container/IO/concurrency methods, so an untyped receiver is far more
#: likely a list or a pipe than a project class.
BUILTIN_METHOD_NAMES = frozenset(
    {
        "add", "append", "clear", "close", "copy", "count", "discard",
        "extend", "get", "index", "insert", "items", "join", "keys",
        "open", "pop", "popitem", "put", "read", "recv", "release", "remove",
        "reverse", "send", "set", "setdefault", "sort", "split",
        "start", "strip", "submit", "terminate", "tolist", "update",
        "values", "wait", "write",
    }
)


@dataclass
class CallSite:
    caller: str
    callee: str
    line: int
    kind: str  # direct | constructor | method | name | registry
    node: ast.Call


@dataclass
class UnresolvedCall:
    caller: str
    target: str  # best-effort textual form
    line: int
    reason: str


@dataclass
class CallGraph:
    table: SymbolTable
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    sites: List[CallSite] = field(default_factory=list)
    unresolved: List[UnresolvedCall] = field(default_factory=list)
    #: per-function call sites, for held-lock traversals
    sites_by_caller: Dict[str, List[CallSite]] = field(default_factory=dict)

    def add(self, site: CallSite) -> None:
        self.edges.setdefault(site.caller, set()).add(site.callee)
        self.sites.append(site)
        self.sites_by_caller.setdefault(site.caller, []).append(site)

    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return f"{head}.{node.attr}" if head else None
    return None


def _call_repr(call: ast.Call) -> str:
    return _dotted(call.func) or type(call.func).__name__


def _constructor(table: SymbolTable, qualname: str) -> Optional[FunctionInfo]:
    cls = table.classes.get(qualname)
    if cls is None:
        return None
    return table.method_on(cls, "__init__")


class _FunctionResolver:
    """Per-function local-type environment + call resolution."""

    def __init__(self, graph: CallGraph, fn: FunctionInfo) -> None:
        self.graph = graph
        self.table = graph.table
        self.fn = fn
        self.module = fn.module
        self.locals: Dict[str, str] = {}  # var -> class qualname
        self.registry_vars: Set[str] = set()  # vars holding get_executor results
        # Names bound inside the function (nested defs and lambdas
        # included): a bare-name call through one of them is a call to
        # whatever value it holds, not to a builtin or an external import.
        self.params: Set[str] = set()
        self.assigned: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.arg):
                self.params.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.assigned.add(node.id)
        for name, annotation in self._params().items():
            resolved = annotation_class(self.table, self.module, annotation)
            if resolved is not None:
                self.locals[name] = resolved

    def _params(self) -> Dict[str, ast.AST]:
        out: Dict[str, ast.AST] = {}
        args = getattr(self.fn.node, "args", None)
        if args is None:
            return out
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                out[arg.arg] = arg.annotation
        return out

    # -- typing ------------------------------------------------------------

    def _value_class(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Call):
            target = self._resolve_callable(value.func)
            if target is not None:
                kind, info = target
                if kind == "constructor":
                    return info.cls
                if info.return_class is not None:
                    return info.return_class
            return None
        if isinstance(value, ast.Name):
            return self.locals.get(value.id)
        if isinstance(value, ast.Attribute):
            receiver = self._receiver_class(value.value)
            if receiver is not None:
                cls = self.table.classes.get(receiver)
                if cls is not None:
                    return cls.attr_types.get(value.attr)
            return None
        if isinstance(value, ast.IfExp):
            return self._value_class(value.body) or self._value_class(value.orelse)
        if isinstance(value, ast.BoolOp):
            for operand in value.values:
                got = self._value_class(operand)
                if got:
                    return got
        return None

    def _receiver_class(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.fn.cls is not None:
                return self.fn.cls
            return self.locals.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self._receiver_class(node.value)
            if owner is not None:
                cls = self.table.classes.get(owner)
                if cls is not None:
                    return cls.attr_types.get(node.attr)
        return None

    # -- call resolution ---------------------------------------------------

    def _resolve_callable(
        self, func: ast.AST
    ) -> Optional[Tuple[str, FunctionInfo]]:
        """Resolve a call's func expression to ("direct"|"constructor"|"method", fn)."""
        table = self.table
        if isinstance(func, ast.Name):
            name = func.id
            mod = table.modules.get(self.module)
            if mod is not None and name in mod.functions:
                return ("direct", mod.functions[name])
            if mod is not None and name in mod.classes:
                ctor = _constructor(table, mod.classes[name].qualname)
                if ctor is not None:
                    return ("constructor", ctor)
                return None
            cls = table.resolve_class_name(name, self.module)
            if cls is not None:
                ctor = _constructor(table, cls.qualname)
                return ("constructor", ctor) if ctor is not None else None
            if mod is not None:
                target = mod.imports.get(name)
                if target is not None and target in table.functions:
                    return ("direct", table.functions[target])
            return None
        if isinstance(func, ast.Attribute):
            receiver = self._receiver_class(func.value)
            if receiver is not None:
                cls = table.classes.get(receiver)
                if cls is not None:
                    method = table.method_on(cls, func.attr)
                    if method is not None:
                        return ("method", method)
                    return None
            # module-qualified function: `mod.func(...)`
            dotted = _dotted(func)
            if dotted is not None:
                head = dotted.split(".")[0]
                mod = table.modules.get(self.module)
                target = mod.imports.get(head) if mod is not None else None
                if target is not None:
                    resolved = dotted.replace(head, target, 1)
                    if resolved in table.functions:
                        return ("direct", table.functions[resolved])
                    cls = table.classes.get(resolved)
                    if cls is not None:
                        ctor = _constructor(table, cls.qualname)
                        if ctor is not None:
                            return ("constructor", ctor)
        return None

    def _is_get_executor(self, call: ast.Call) -> bool:
        name = _dotted(call.func)
        return bool(name) and name.rsplit(".", 1)[-1] == "get_executor"

    def _record(self, call: ast.Call, kind: str, callee: FunctionInfo) -> None:
        self.graph.add(
            CallSite(
                caller=self.fn.qualname,
                callee=callee.qualname,
                line=call.lineno,
                kind=kind,
                node=call,
            )
        )

    def _unresolved(self, call: ast.Call, reason: str) -> None:
        self.graph.unresolved.append(
            UnresolvedCall(
                caller=self.fn.qualname,
                target=_call_repr(call),
                line=call.lineno,
                reason=reason,
            )
        )

    def visit(self) -> None:
        # First pass: local assignments, in source order.
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Call) and self._is_get_executor(value):
                self.registry_vars.add(target.id)
                continue
            inferred = self._value_class(value)
            if inferred is not None:
                self.locals.setdefault(target.id, inferred)
        # Second pass: every call expression in the function (nested defs
        # included — they belong to this function).
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Call):
                self._visit_call(node)

    def _visit_call(self, call: ast.Call) -> None:
        table = self.table
        func = call.func
        # Registry dispatch: calling a variable bound from get_executor().
        if isinstance(func, ast.Name) and func.id in self.registry_vars:
            if not table.executors:
                self._unresolved(call, "registry dispatch with no static registry")
                return
            for reg in table.executors:
                self._record(call, "registry", reg.func)
            return
        resolved = self._resolve_callable(func)
        if resolved is not None:
            kind, callee = resolved
            self._record(call, kind, callee)
            return
        if isinstance(func, ast.Attribute):
            # ``super().method(...)`` — resolve on the enclosing class's
            # project-resolvable bases (the zero-argument form, which is
            # the only one the codebase uses).  Without this the call
            # would fall through to the name fallback and fan out to
            # every same-named method — e.g. an exception subclass's
            # ``super().__init__`` growing edges to every ``__init__``
            # in the project.
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and not func.value.args
                and self.fn.cls is not None
            ):
                cls = table.classes.get(self.fn.cls)
                if cls is not None:
                    for base in cls.bases:
                        base_cls = table.resolve_class_name(base, cls.module)
                        if base_cls is None:
                            continue
                        method = table.method_on(base_cls, func.attr)
                        if method is not None:
                            self._record(call, "method", method)
                            return
                # The base chain leaves the project (e.g. Exception):
                # external method, out of scope — same as a typed
                # receiver resolving to a non-project class.
                return
            receiver = self._receiver_class(func.value)
            if receiver is not None:
                # Typed receiver but unknown method: a project class is
                # being called in a way the table cannot see.
                self._unresolved(
                    call, f"method {func.attr!r} not found on {receiver}"
                )
                return
            name = func.attr
            if name in BUILTIN_METHOD_NAMES:
                return  # almost certainly a builtin container/pipe method
            candidates = table.methods_by_name.get(name, [])
            candidates = [c for c in candidates if c.cls is not None]
            if candidates:
                for candidate in candidates:
                    self._record(call, "name", candidate)
                return
            return  # external library method — out of scope
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.locals:
                self._unresolved(call, "call through typed value (no __call__ model)")
            elif name == "cls" and self.fn.cls is not None:
                # ``cls(...)`` in a classmethod: the class's own constructor
                # (an external base's ``__init__`` is out of scope).
                ctor = _constructor(table, self.fn.cls)
                if ctor is not None:
                    self._record(call, "constructor", ctor)
            elif name in self.params:
                self._unresolved(call, "call through a parameter")
            elif name in self.assigned:
                self._unresolved(call, "call through a local variable")
            # Anything else is a builtin, an external import, or a nested
            # def (whose calls already belong to this function).
            return
        self._unresolved(call, "unsupported call form")

    def record_callbacks(self) -> None:
        """Record (not traverse) project functions passed as arguments."""
        for node in ast.walk(self.fn.node):
            if not isinstance(node, ast.Call):
                continue
            for arg in [*node.args, *[k.value for k in node.keywords]]:
                target: Optional[str] = None
                if isinstance(arg, ast.Attribute) and isinstance(
                    arg.value, ast.Name
                ):
                    receiver = self._receiver_class(arg.value)
                    if receiver is not None:
                        cls = self.table.classes.get(receiver)
                        if cls is not None and self.table.method_on(cls, arg.attr):
                            target = f"{receiver}.{arg.attr}"
                elif isinstance(arg, ast.Name):
                    mod = self.table.modules.get(self.module)
                    if mod is not None and arg.id in mod.functions:
                        target = mod.functions[arg.id].qualname
                    elif mod is not None and mod.imports.get(arg.id) in self.table.functions:
                        target = mod.imports[arg.id]
                if target is not None:
                    self.graph.unresolved.append(
                        UnresolvedCall(
                            caller=self.fn.qualname,
                            target=target,
                            line=node.lineno,
                            reason="callback reference (not traversed)",
                        )
                    )


def build_call_graph(table: SymbolTable) -> CallGraph:
    graph = CallGraph(table=table)
    for fn in table.functions.values():
        resolver = _FunctionResolver(graph, fn)
        resolver.visit()
        resolver.record_callbacks()
    return graph


def call_graph(project: Project) -> CallGraph:
    """Cached accessor: one call graph per Project instance."""
    cached = getattr(project, "_call_graph", None)
    if cached is None:
        cached = build_call_graph(symbol_table(project))
        project._call_graph = cached  # type: ignore[attr-defined]
    return cached


def unguarded_sinks(
    graph: CallGraph,
    entries: Iterable[str],
    barriers: Set[str],
    sinks_of: Callable[[ast.AST], list],
) -> Iterator[Tuple[FunctionInfo, object, List[str]]]:
    """The BFS-to-barrier walk behind the reachability proofs.

    Walks the call graph breadth-first from ``entries`` (qualnames, seeded
    in the order given) and never descends below a function in
    ``barriers``.  For every function reached outside a barrier for which
    ``sinks_of(function.node)`` is non-empty, yields ``(function, first
    sink, chain)`` in qualname order, where ``chain`` is the witness call
    path from an entry down to the function (parent pointers of the BFS,
    so the shortest one, ties broken by callee name).
    """
    parent: Dict[str, Optional[str]] = {}
    queue: Deque[str] = deque()
    for qualname in entries:
        if qualname not in parent:
            parent[qualname] = None
            queue.append(qualname)
    while queue:
        current = queue.popleft()
        if current in barriers:
            continue
        for callee in sorted(graph.callees(current)):
            if callee not in parent:
                parent[callee] = current
                queue.append(callee)
    for qualname in sorted(parent):
        fn = graph.table.functions.get(qualname)
        if fn is None or qualname in barriers:
            continue
        sinks = sinks_of(fn.node)
        if not sinks:
            continue
        chain: List[str] = []
        cursor: Optional[str] = qualname
        while cursor is not None:
            chain.append(cursor)
            cursor = parent[cursor]
        chain.reverse()
        yield fn, sinks[0], chain
