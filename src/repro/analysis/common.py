"""AST infrastructure of the MR-contract analyzer.

What :mod:`repro.analysis.mrlint` builds its rules on: the
:class:`Finding` record type, scope/binding helpers, MR/kernel function
discovery, an import-binding pass that resolves aliases (``import time
as t``, ``from random import random as rnd``) to canonical dotted
origins, and the program model — every file under the analyzed paths
read, parsed and function-discovered exactly once
(:func:`load_program`), so every rule looks at the same picture.

Everything in this module is stdlib-:mod:`ast` only — the analyzer
must run in a bare checkout with no third-party dependencies.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "PARSE_ERROR",
    "Finding",
    "FunctionInfo",
    "FunctionNode",
    "ImportBindings",
    "Module",
    "Program",
    "assigned_locals",
    "discover_functions",
    "iter_py_files",
    "load_program",
    "local_bindings",
    "module_bindings",
    "module_constants",
    "read_sources",
    "root_name",
    "shallow_nodes",
    "target_names",
]

#: pseudo-rule for files that do not parse
PARSE_ERROR = "MR000"

@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    function: str
    message: str

    def format(self) -> str:
        where = f" [{self.function}]" if self.function else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}{where} {self.message}"


# ---------------------------------------------------------------------------
# AST scope helpers
# ---------------------------------------------------------------------------

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def shallow_nodes(scope: FunctionNode | ast.Module) -> Iterator[ast.AST]:
    """Every node of *scope*'s body, excluding nested function/class bodies
    (those have their own scopes and, where relevant, their own checks)."""
    stack: list[ast.AST] = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def target_names(target: ast.expr) -> Iterator[str]:
    """Plain names bound by an assignment target."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from target_names(target.value)


def root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_bindings(tree: ast.Module) -> set[str]:
    """Names bound at module level (imports, assignments, defs)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(target_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(target_names(node.target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(target_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names.update(target_names(item.optional_vars))
    return names


def module_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` string constants."""
    constants: dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            constants[node.targets[0].id] = node.value.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            constants[node.target.id] = node.value.value
    return constants


def local_bindings(fn: FunctionNode) -> set[str]:
    """Names bound inside *fn*'s own scope (params + shallow bindings)."""
    names: set[str] = set()
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        names.add(arg.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in shallow_nodes(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(target_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(target_names(node.target))
        elif isinstance(node, ast.NamedExpr):
            names.update(target_names(node.target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(target_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names.update(target_names(item.optional_vars))
        elif isinstance(node, ast.comprehension):
            names.update(target_names(node.target))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared_global.update(node.names)
    return names - declared_global


def assigned_locals(fn: FunctionNode) -> set[str]:
    """Names bound by *value* assignments in *fn*'s scope — everything
    :func:`local_bindings` reports except nested ``def``/``class``
    statements.  Used to refuse call-graph resolution when a local
    variable shadows a function name."""
    defs: set[str] = set()
    for node in shallow_nodes(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.add(node.name)
    return local_bindings(fn) - defs


# ---------------------------------------------------------------------------
# MR / kernel function discovery
# ---------------------------------------------------------------------------

MR_NAME_RE = re.compile(
    r"(?:^|_)(?:mapper|reducer|combiner)$"
    r"|^(?:map|reduce|combine)_(?:setup|teardown)$"
)
KERNEL_NAME_RE = re.compile(r"(?:_join|_verify)$")
JOB_MR_KWARGS = frozenset(
    {
        "mapper",
        "reducer",
        "combiner",
        "map_setup",
        "map_teardown",
        "reduce_setup",
        "reduce_teardown",
    }
)

#: job kwarg -> contract role of the function bound to it
_KWARG_ROLES = {
    "mapper": "mapper",
    "reducer": "reducer",
    "combiner": "combiner",
    "map_setup": "hook",
    "map_teardown": "hook",
    "reduce_setup": "hook",
    "reduce_teardown": "hook",
}


@dataclass
class FunctionInfo:
    """One discovered function with its scope context."""

    node: FunctionNode
    qualname: str
    enclosing: tuple[FunctionNode, ...]  # outermost -> innermost
    is_mr: bool
    is_kernel: bool
    #: "mapper" / "reducer" / "combiner" / "hook" / "" (kernel or helper)
    role: str = ""
    in_class: bool = False


def _name_role(name: str) -> str:
    if re.search(r"(?:^|_)mapper$", name):
        return "mapper"
    if re.search(r"(?:^|_)reducer$", name):
        return "reducer"
    if re.search(r"(?:^|_)combiner$", name):
        return "combiner"
    if re.match(r"^(?:map|reduce|combine)_(?:setup|teardown)$", name):
        return "hook"
    return ""


def discover_functions(tree: ast.Module) -> list[FunctionInfo]:
    """Find every function in a parsed module, marking MR and kernel ones.

    Discovery is structural: MR functions by name pattern
    (``mapper``/``*_reducer``/``map_setup`` ...) or by being passed as a
    ``mapper=``/``reducer=``/... keyword to a ``*Job(...)`` constructor;
    kernel functions by ``*Index`` class membership or a ``_join`` /
    ``_verify`` name suffix.  Every other function is still returned
    (``is_mr=False, is_kernel=False``) so interprocedural analyses can
    build a complete call graph.
    """
    job_kwarg_roles: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            callee_name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute) else ""
            )
            if not callee_name.endswith("Job"):
                continue
            for kw in node.keywords:
                if kw.arg in JOB_MR_KWARGS and isinstance(kw.value, ast.Name):
                    job_kwarg_roles[kw.value.id] = _KWARG_ROLES[kw.arg]

    found: list[FunctionInfo] = []

    def visit(
        nodes: Iterable[ast.AST],
        enclosing: tuple[FunctionNode, ...],
        prefix: str,
        in_index_class: bool,
        in_class: bool,
    ) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                is_mr = (
                    MR_NAME_RE.search(node.name) is not None
                    or node.name in job_kwarg_roles
                )
                is_kernel = (
                    in_index_class or KERNEL_NAME_RE.search(node.name) is not None
                )
                role = _name_role(node.name) or job_kwarg_roles.get(node.name, "")
                found.append(
                    FunctionInfo(node, qualname, enclosing, is_mr, is_kernel, role, in_class)
                )
                visit(node.body, enclosing + (node,), f"{qualname}.", False, False)
            elif isinstance(node, ast.ClassDef):
                visit(
                    node.body,
                    enclosing,
                    f"{prefix}{node.name}.",
                    node.name.endswith("Index"),
                    True,
                )

    visit(tree.body, (), "", False, False)
    return found


# ---------------------------------------------------------------------------
# import-binding resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImportBindings:
    """Local name -> canonical dotted origin, derived from imports.

    ``import time as t`` binds ``t -> "time"``; ``from random import
    random as rnd`` binds ``rnd -> "random.random"``; ``import
    repro.join.stage2`` binds ``repro -> "repro"`` (the attribute chain
    completes the dotted path at resolution time).
    """

    modules: dict[str, str]
    members: dict[str, str]

    @classmethod
    def collect(cls, tree: ast.Module, module_name: str | None = None) -> ImportBindings:
        """Gather import bindings anywhere in *tree* (function-local
        imports included).  *module_name* (dotted) resolves relative
        imports; without it they are skipped."""
        modules: dict[str, str] = {}
        members: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        modules[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        modules[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    if module_name is None:
                        continue
                    anchor = module_name.split(".")[: -node.level]
                    if not anchor:
                        continue
                    base = ".".join([*anchor, base]) if base else ".".join(anchor)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    origin = f"{base}.{alias.name}" if base else alias.name
                    members[alias.asname or alias.name] = origin
        return cls(modules, members)

    def resolve(self, expr: ast.expr) -> str | None:
        """Dotted origin of a ``Name``/``Attribute`` chain, if its root
        is an import binding (``t.time`` -> ``"time.time"``)."""
        parts: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        origin = self.modules.get(node.id) or self.members.get(node.id)
        if origin is None:
            return None
        return ".".join([origin, *parts]) if parts else origin


# ---------------------------------------------------------------------------
# program model
# ---------------------------------------------------------------------------


def iter_py_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under *paths* (files or directory trees), in a
    deterministic order, skipping ``__pycache__``."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            yield os.fspath(path)


def read_sources(paths: Iterable[str]) -> Iterator[tuple[str, str]]:
    """``(path, source text)`` of every file :func:`iter_py_files` finds
    under *paths*, each file once however many of *paths* reach it."""
    seen: set[str] = set()
    for filename in iter_py_files(paths):
        normalized = os.path.normpath(filename)
        if normalized in seen:
            continue
        seen.add(normalized)
        with open(filename, "r", encoding="utf-8") as handle:
            yield filename, handle.read()


@dataclass
class Module:
    """One parsed source file and everything the rules ask of it."""

    path: str
    name: str
    tree: ast.Module
    bindings: ImportBindings
    functions: dict[str, FunctionInfo]  # by qualname
    constants: dict[str, str]


@dataclass
class Program:
    """The analyzed modules, indexed for cross-module resolution.
    Function ids are ``<module name>::<qualname>``."""

    modules: list[Module]
    by_name: dict[str, Module]
    functions: dict[str, tuple[Module, FunctionInfo]]
    #: method name -> ids of the functions defining it in some class
    method_index: dict[str, list[str]]
    parse_failures: list[Finding]


def _module_name(path: str) -> str:
    """Dotted module name of *path*: components after the last ``src``
    directory when present (``src/repro/join/stage2.py`` ->
    ``repro.join.stage2``), otherwise the bare stem — so sibling
    fixture files resolve each other by stem."""
    normalized = os.path.normpath(path)
    parts = [p for p in normalized.split(os.sep) if p not in (".", "", os.curdir)]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("src")
        tail = parts[anchor + 1 :]
        if tail:
            return ".".join(tail)
    return parts[-1] if parts else "<module>"


def load_program(files: Iterable[tuple[str, str]]) -> Program:
    """Build the program model from ``(path, source text)`` pairs: each
    file is parsed and function-discovered here, once;
    a file that does not parse becomes a :data:`PARSE_ERROR` finding."""
    modules: list[Module] = []
    by_name: dict[str, Module] = {}
    failures: list[Finding] = []
    for path, source in files:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            failures.append(
                Finding(
                    PARSE_ERROR,
                    path,
                    exc.lineno or 1,
                    (exc.offset or 1) - 1,
                    "",
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        name = _module_name(path)
        if name in by_name:
            # the same stem twice outside a src/ tree: function ids must
            # stay unique, so imports just do not resolve to this one
            name = path
        by_name[name] = Module(
            path=path,
            name=name,
            tree=tree,
            bindings=ImportBindings.collect(tree, module_name=name),
            functions={fn.qualname: fn for fn in discover_functions(tree)},
            constants=module_constants(tree),
        )
        modules.append(by_name[name])
    functions: dict[str, tuple[Module, FunctionInfo]] = {}
    method_index: dict[str, list[str]] = {}
    for mod in modules:
        for qualname, info in mod.functions.items():
            fid = f"{mod.name}::{qualname}"
            functions[fid] = (mod, info)
            leaf = qualname.rsplit(".", 1)[-1]
            if info.in_class and not leaf.startswith("__"):
                method_index.setdefault(leaf, []).append(fid)
    return Program(modules, by_name, functions, method_index, failures)
