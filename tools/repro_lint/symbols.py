"""Project-wide symbol table shared by every repro-lint rule.

One pass over a :class:`~tools.repro_lint.core.Project` produces a
:class:`SymbolTable`: modules with their import maps, classes with
resolved attribute types and guarded fields, functions with their
``# repro-lint: holds=`` / ``# repro-lint: charged`` annotations, and
the statically-rebuilt executor registry that RL004 pioneered.  The
interprocedural rules (RL007-RL009) build their call graph on top of
this table; the older intraprocedural rules (RL001-RL005) consume the
per-class extracts so every rule agrees on what a guarded field or a
registered executor *is*.

Resolution here is deliberately static and conservative:

* attribute types come from ``__init__`` assignments whose right-hand
  side is a project-class constructor call or an annotated parameter
  (string annotations and ``X | None`` unions are unwrapped);
* anything that cannot be resolved is simply absent — callers such as
  the call-graph builder record their own explicit ``unresolved``
  entries instead of guessing.

The table is cached per :class:`Project` instance; building it twice is
harmless but wasteful.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.repro_lint.core import Project, SourceFile

#: ``# guarded_by: <lock>`` on a ``self.<field> = ...`` line in ``__init__``.
GUARDED_RE = re.compile(r"#\s*guarded_by:\s*(?:self\.)?([A-Za-z_]\w*)")

#: ``# repro-lint: holds=<lock>[,<lock>...]`` on/above a ``def`` line.
HOLDS_RE = re.compile(
    r"#\s*repro-lint:\s*holds=((?:(?:self\.)?[A-Za-z_]\w*)(?:\s*,\s*(?:self\.)?[A-Za-z_]\w*)*)"
)

#: ``# repro-lint: charged`` on/above a ``def`` line: the function's raw
#: page accesses are pre-charged by an audited sibling call (RL007).
CHARGED_RE = re.compile(r"#\s*repro-lint:\s*charged\b")

#: The raw-I/O contract, shared by RL002 (syntactic firewall: no raw disk
#: calls outside storage/) and RL007 (dataflow proof: every executor path
#: to a raw read traverses a charging function).  One definition so the
#: two rules can never disagree about what counts as "raw".
RAW_IO_METHODS = frozenset(
    {"read_page", "charge_reads", "extent_bytes", "write_page", "write_extent"}
)
RAW_BUFFER_ATTRS = frozenset({"_buf", "_used"})

#: The read-side subset of :data:`RAW_IO_METHODS` that RL007 proves
#: charging coverage for (writes and the charging entry point itself are
#: not "uncharged read" sinks).
RAW_READ_METHODS = frozenset({"read_page", "extent_bytes"})


def module_name_for(rel: str) -> str:
    """Dotted module name for a repo-relative posix path.

    ``src/repro/core/query.py`` -> ``repro.core.query``;
    ``tools/repro_lint/core.py`` -> ``tools.repro_lint.core``;
    package ``__init__.py`` files map to the package name.
    """
    parts = list(rel.split("/"))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    # Drop everything up to (and including) the last `src` layout root.
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "src":
            parts = parts[i + 1 :]
            break
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    parts = [p for p in parts if p not in ("", ".")]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One top-level function or method; nested defs belong to their parent."""

    name: str
    qualname: str  # module.func or module.Class.func
    module: str
    cls: Optional[str]  # owning class qualname, or None
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    file: SourceFile
    holds: Tuple[str, ...] = ()  # lock attr names from holds= annotation
    charged: bool = False  # repro-lint: charged annotation
    return_class: Optional[str] = None  # resolved class qualname


@dataclass
class ClassInfo:
    name: str
    qualname: str
    module: str
    node: ast.ClassDef
    file: SourceFile
    bases: Tuple[str, ...] = ()  # raw base expressions (dotted names)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> class qualname
    #: field -> (guarding lock attr, declaration line) from `# guarded_by:`
    guarded_fields: Dict[str, Tuple[str, int]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    file: SourceFile
    imports: Dict[str, str] = field(default_factory=dict)  # local name -> dotted target
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    top_level_names: Set[str] = field(default_factory=set)


@dataclass
class ExecutorRegistration:
    kind: str
    name: str
    func: FunctionInfo


@dataclass
class SymbolTable:
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)  # incl. methods
    classes_by_name: Dict[str, List[ClassInfo]] = field(default_factory=dict)
    methods_by_name: Dict[str, List[FunctionInfo]] = field(default_factory=dict)
    #: statically rebuilt ``@register_executor(kind, name)`` registry
    executors: List[ExecutorRegistration] = field(default_factory=list)
    #: registrations whose arguments are not string literals
    dynamic_registrations: List[Tuple[SourceFile, int]] = field(default_factory=list)

    # -- resolution helpers -------------------------------------------------

    def resolve_class_name(self, name: str, module: str) -> Optional[ClassInfo]:
        """Resolve a (possibly dotted) class name seen in *module*."""
        mod = self.modules.get(module)
        head, _, rest = name.partition(".")
        if mod is not None:
            if not rest and head in mod.classes:
                return mod.classes[head]
            target = mod.imports.get(head)
            if target is not None:
                dotted = target + ("." + rest if rest else "")
                if dotted in self.classes:
                    return self.classes[dotted]
                # `import repro.core.st_index as m; m.STIndex`
                owner = self.modules.get(target)
                if owner is not None and rest in owner.classes:
                    return owner.classes[rest]
        if not rest:
            candidates = self.classes_by_name.get(head, [])
            if len(candidates) == 1:
                return candidates[0]
        elif name in self.classes:
            return self.classes[name]
        return None

    def method_on(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Look *name* up on *cls* and (project-resolvable) bases."""
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            cur = stack.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            if name in cur.methods:
                return cur.methods[name]
            for base in cur.bases:
                resolved = self.resolve_class_name(base, cur.module)
                if resolved is not None:
                    stack.append(resolved)
        return None


# ---------------------------------------------------------------------------
# extraction


def _comment_on_or_above(sf: SourceFile, node: ast.AST) -> str:
    """Comment text on/above a ``def``, first decorator included."""
    decorators = getattr(node, "decorator_list", [])
    first = decorators[0].lineno if decorators else node.lineno
    return sf.comment_in_range(first - 1, node.lineno)


def _holds_for(sf: SourceFile, node: ast.AST) -> Tuple[str, ...]:
    blob = _comment_on_or_above(sf, node)
    out = []
    for match in HOLDS_RE.finditer(blob):
        for part in match.group(1).split(","):
            name = part.strip().removeprefix("self.")
            if name:
                out.append(name)
    return tuple(out)


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return f"{head}.{node.attr}" if head else None
    return None


def _unwrap_annotation(node: ast.AST) -> Iterator[ast.AST]:
    """Yield candidate class-name expressions inside an annotation."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return
        yield from _unwrap_annotation(parsed)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        yield from _unwrap_annotation(node.left)
        yield from _unwrap_annotation(node.right)
    elif isinstance(node, ast.Subscript):
        # Optional[X] / list[X]: look inside, the container itself is not
        # a project class.
        name = _dotted(node.value)
        if name and name.rsplit(".", 1)[-1] == "Optional":
            yield from _unwrap_annotation(node.slice)
    elif isinstance(node, (ast.Name, ast.Attribute)):
        name = _dotted(node)
        if name and name != "None":
            yield node


def annotation_class(
    table: SymbolTable, module: str, node: Optional[ast.AST]
) -> Optional[str]:
    """Resolve an annotation to a project class qualname, if possible."""
    if node is None:
        return None
    for candidate in _unwrap_annotation(node):
        name = _dotted(candidate)
        if name is None:
            continue
        cls = table.resolve_class_name(name, module)
        if cls is not None:
            return cls.qualname
    return None


def _param_annotations(node: ast.AST) -> Dict[str, ast.AST]:
    out: Dict[str, ast.AST] = {}
    args = getattr(node, "args", None)
    if args is None:
        return out
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is not None:
            out[arg.arg] = arg.annotation
    return out


def _register_executor_call(dec: ast.AST) -> Optional[ast.Call]:
    if isinstance(dec, ast.Call):
        name = _dotted(dec.func)
        if name and name.rsplit(".", 1)[-1] == "register_executor":
            return dec
    return None


def _collect_functions(
    sf: SourceFile,
    module: str,
    body: Sequence[ast.stmt],
    cls: Optional[ClassInfo],
) -> Dict[str, FunctionInfo]:
    out: Dict[str, FunctionInfo] = {}
    prefix = cls.qualname if cls is not None else module
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[stmt.name] = FunctionInfo(
                name=stmt.name,
                qualname=f"{prefix}.{stmt.name}",
                module=module,
                cls=cls.qualname if cls is not None else None,
                node=stmt,
                file=sf,
                holds=_holds_for(sf, stmt),
                charged=bool(CHARGED_RE.search(_comment_on_or_above(sf, stmt))),
            )
    return out


def top_level_names(tree: ast.Module) -> Set[str]:
    """Names bound at module top level (defs, classes, assignments,
    imports), including conditional branches (RL005's export check and
    the symbol table share this definition)."""
    names: Set[str] = set()

    def collect(body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        names.add(t.id)
                    elif isinstance(t, (ast.Tuple, ast.List)):
                        for e in t.elts:
                            if isinstance(e, ast.Name):
                                names.add(e.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, (ast.If, ast.Try)):
                collect(stmt.body)
                for handler in getattr(stmt, "handlers", []):
                    collect(handler.body)
                collect(stmt.orelse)
                collect(getattr(stmt, "finalbody", []))

    collect(tree.body)
    return names


def _module_imports(module: str, tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else ""
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                parts = package.split(".") if package else []
                parts = parts[: len(parts) - (stmt.level - 1)] if stmt.level > 1 else parts
                base = ".".join([p for p in parts if p] + ([base] if base else []))
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _infer_value_class(
    table: SymbolTable,
    module: str,
    value: ast.AST,
    params: Dict[str, ast.AST],
) -> Optional[str]:
    """Class qualname of an assigned expression, or None."""
    if isinstance(value, ast.Call):
        name = _dotted(value.func)
        if name is not None:
            cls = table.resolve_class_name(name, module)
            if cls is not None:
                return cls.qualname
        return None
    if isinstance(value, ast.Name) and value.id in params:
        return annotation_class(table, module, params[value.id])
    if isinstance(value, ast.IfExp):
        return _infer_value_class(table, module, value.body, params) or _infer_value_class(
            table, module, value.orelse, params
        )
    if isinstance(value, ast.BoolOp):
        for operand in value.values:
            got = _infer_value_class(table, module, operand, params)
            if got:
                return got
    return None


def _populate_class_details(table: SymbolTable) -> None:
    """Second pass: attribute types, guarded fields, returns."""
    for cls in table.classes.values():
        for method in cls.methods.values():
            params = _param_annotations(method.node)
            for stmt in ast.walk(method.node):
                target: Optional[ast.AST] = None
                value: Optional[ast.AST] = None
                annotation: Optional[ast.AST] = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value, annotation = stmt.target, stmt.value, stmt.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                inferred = None
                if value is not None:
                    inferred = _infer_value_class(table, cls.module, value, params)
                if inferred is None and annotation is not None:
                    inferred = annotation_class(table, cls.module, annotation)
                if inferred is not None:
                    cls.attr_types.setdefault(attr, inferred)
        init = cls.methods.get("__init__")
        if init is not None:
            for stmt in ast.walk(init.node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                names = [
                    t.attr
                    for t in targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ]
                if not names:
                    continue
                end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
                comment = cls.file.comment_in_range(stmt.lineno, end)
                match = GUARDED_RE.search(comment)
                if match:
                    for name in names:
                        cls.guarded_fields.setdefault(
                            name, (match.group(1), stmt.lineno)
                        )
    for fn in table.functions.values():
        returns = getattr(fn.node, "returns", None)
        fn.return_class = annotation_class(table, fn.module, returns)


def _collect_executors(table: SymbolTable) -> None:
    for fn in table.functions.values():
        for dec in getattr(fn.node, "decorator_list", []):
            call = _register_executor_call(dec)
            if call is None:
                continue
            args = list(call.args)
            consts = [
                a.value
                for a in args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            ]
            if len(consts) == len(args) and len(consts) >= 2:
                table.executors.append(
                    ExecutorRegistration(kind=consts[0], name=consts[1], func=fn)
                )
            else:
                table.dynamic_registrations.append((fn.file, call.lineno))
    table.executors.sort(key=lambda r: (r.kind, r.name, r.func.qualname))
    table.dynamic_registrations.sort(key=lambda d: (d[0].rel, d[1]))


def build_symbol_table(project: Project) -> SymbolTable:
    table = SymbolTable()
    for sf in project.iter_parsed():
        module = module_name_for(sf.rel)
        assert sf.tree is not None
        info = ModuleInfo(name=module, file=sf)
        info.imports = _module_imports(module, sf.tree)
        info.top_level_names = top_level_names(sf.tree)
        info.functions = _collect_functions(sf, module, sf.tree.body, None)
        for stmt in sf.tree.body:
            if isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(
                    name=stmt.name,
                    qualname=f"{module}.{stmt.name}",
                    module=module,
                    node=stmt,
                    file=sf,
                    bases=tuple(
                        b for b in (_dotted(base) for base in stmt.bases) if b
                    ),
                )
                cls.methods = _collect_functions(sf, module, stmt.body, cls)
                info.classes[stmt.name] = cls
        # Last-writer-wins keeps duplicate module names (rare in fixture
        # trees) deterministic without raising.
        table.modules[module] = info
        for cls in info.classes.values():
            table.classes[cls.qualname] = cls
            table.classes_by_name.setdefault(cls.name, []).append(cls)
            for m in cls.methods.values():
                table.functions[m.qualname] = m
                table.methods_by_name.setdefault(m.name, []).append(m)
        for fn in info.functions.values():
            table.functions[fn.qualname] = fn
    _populate_class_details(table)
    _collect_executors(table)
    return table


def symbol_table(project: Project) -> SymbolTable:
    """Cached accessor: one table per Project instance."""
    cached = getattr(project, "_symbol_table", None)
    if cached is None:
        cached = build_symbol_table(project)
        project._symbol_table = cached  # type: ignore[attr-defined]
    return cached
