"""mrlint — AST-based static analyzer for the MapReduce contract.

The correctness of the pipeline rests on invariants the runtime never
checks: mappers and reducers must be pure with respect to module state
(tasks re-run and re-order freely), nothing order-nondeterministic may
flow into ``emit()`` (partition contents must be byte-identical across
the sequential engine and the fork executors), kernel code must be
deterministic (no unseeded randomness, no wall-clock reads), closures
shipped to fork workers must not capture unpicklable handles, and the
Stage-2 composite keys must keep their ``(group, length, ...)`` shape
— the length component is what lets the PK kernel evict index entries
(Section 3.2.2) and the R-S kernel stream R before S (Section 4).

``mrlint`` discovers every mapper/reducer/combiner and kernel function
in a source tree (stdlib :mod:`ast` only, no third-party dependency)
and enforces those invariants mechanically:

=======  ==============================================================
rule     violation
=======  ==============================================================
MR001    MR function mutates module-level state (stateful mapper)
MR002    iteration over a ``set``/``frozenset`` in a function that
         feeds ``emit()``/``write()``/returned pairs (unordered
         iteration breaks byte-identical output; wrap in ``sorted()``)
MR003    unseeded randomness or wall-clock read in MR/kernel code
         (``random.*`` module functions, ``time.time``, ``os.urandom``,
         ``uuid.uuid4``, ``datetime.now``; ``random.Random(seed)`` is
         the sanctioned form) — import aliases (``import time as t``,
         ``from random import random as rnd``) are resolved
MR004    MR closure captures an unpicklable object (open file handle,
         ``threading``/``multiprocessing`` primitive, socket) — unsafe
         to ship to fork/pickle workers
MR005    Stage-2 ``emit()`` key is not an inline composite tuple of at
         least two components (``(group, length, ...)`` shape)
MR006    MR function declares a mutable default argument (hidden
         cross-task state)
MR007    silent exception swallowing in MR/kernel code (bare
         ``except:`` or ``except Exception: pass``) — a swallowed task
         failure looks like success, defeating the retry layer and
         corrupting output silently
MR009    unused ``# mrlint: disable=...`` suppression pragma (the
         pragma silenced nothing on its line; remove it)
=======  ==============================================================

A finding can be silenced in place with a trailing comment on the
flagged line — ``# mrlint: disable=MR003`` (several rules
comma-separated, or ``disable=all``).  Both mrlint and the
interprocedural analyzer (:mod:`repro.analysis.mrflow`, rules MR1xx)
honor the same pragma; each tool warns (MR009) about pragma names it
owns that silenced nothing.

Function discovery is structural, not configured:

* functions named ``mapper``/``reducer``/``combiner`` (or ending in
  ``_mapper``/``_reducer``/``_combiner``) and the ``map_setup`` /
  ``reduce_teardown`` hook family;
* any function passed as a ``mapper=``/``reducer=``/``combiner=``/
  ``*_setup=``/``*_teardown=`` keyword to a ``*Job(...)`` constructor;
* kernel code: methods of classes whose name ends in ``Index`` and
  functions ending in ``_join`` or ``_verify`` (MR002/MR003 only).

Run it as ``python -m repro lint src/`` (exit status 1 on findings) or
programmatically via :func:`lint_paths`.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable

from repro.analysis.common import (
    PARSE_ERROR,
    Finding,
    FunctionInfo,
    ImportBindings,
    Suppressions,
    apply_suppressions,
    discover_functions,
    iter_py_files,
    local_bindings,
    module_bindings,
    nondet_reason,
    root_name,
    set_expr,
    shallow_nodes,
    target_names,
)

__all__ = ["RULES", "Finding", "lint_source", "lint_file", "lint_paths"]

#: rule id -> one-line description (stable, documented in docs/API.md)
RULES: dict[str, str] = {
    "MR001": "MR function mutates module-level state",
    "MR002": "set iteration on a path that feeds emit()/returned pairs",
    "MR003": "unseeded randomness or wall-clock read in MR/kernel code",
    "MR004": "MR closure captures an unpicklable object (handle/lock/pool)",
    "MR005": "Stage-2 emit key is not a composite (group, length, ...) tuple",
    "MR006": "MR function declares a mutable default argument",
    "MR007": "MR/kernel code silently swallows exceptions (defeats retry layer)",
    "MR009": "unused mrlint suppression pragma (silenced nothing on its line)",
}

#: methods whose call mutates the receiver in place
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "write",
        "writelines",
    }
)

#: call roots that construct objects unsafe to pickle / ship to workers
_UNPICKLABLE_ROOTS = frozenset({"threading", "multiprocessing", "socket"})
_UNPICKLABLE_NAMES = frozenset(
    {
        "open",
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Pool",
        "Queue",
        "TemporaryFile",
        "NamedTemporaryFile",
        "SpooledTemporaryFile",
        "socket",
    }
)


# ---------------------------------------------------------------------------
# rule checks
# ---------------------------------------------------------------------------


def _check_mr001(
    fn: FunctionInfo,
    module_names: set[str],
    local_names: set[str],
    enclosing_names: set[str],
    emit: list[Finding],
    path: str,
) -> None:
    """Mutation of module-level state inside an MR function."""
    declared_global: set[str] = set()
    flagged: set[str] = set()

    def fire(node: ast.AST, name: str, how: str) -> None:
        if name in flagged:
            return
        flagged.add(name)
        emit.append(
            Finding(
                "MR001",
                path,
                getattr(node, "lineno", fn.node.lineno),
                getattr(node, "col_offset", 0),
                fn.qualname,
                f"{how} module-level {name!r} — MR functions must not "
                "mutate module state (tasks re-run and re-order freely)",
            )
        )

    def is_module_ref(name: str | None) -> bool:
        return (
            name is not None
            and name not in local_names
            and name not in enclosing_names
            and (name in module_names or name in declared_global)
        )

    for node in shallow_nodes(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in shallow_nodes(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    fire(node, target.id, "assigns")
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = root_name(target)
                    if is_module_ref(root):
                        fire(node, root, "writes into")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                root = root_name(node.func.value)
                if is_module_ref(root):
                    fire(node, root, f"calls .{node.func.attr}() on")


_set_expr = set_expr


def _check_mr002(fn: FunctionInfo, emit: list[Finding], path: str) -> None:
    """Iteration over a set in a function that emits/returns data."""
    feeds_output = False
    for node in shallow_nodes(fn.node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("emit", "write"):
                feeds_output = True
        elif isinstance(node, ast.Return) and node.value is not None:
            feeds_output = True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            feeds_output = True
    if not feeds_output:
        return

    set_names: set[str] = set()
    for node in shallow_nodes(fn.node):
        if isinstance(node, ast.Assign) and _set_expr(node.value, set_names):
            for target in node.targets:
                set_names.update(target_names(target))

    def fire(node: ast.AST, what: str) -> None:
        emit.append(
            Finding(
                "MR002",
                path,
                getattr(node, "lineno", fn.node.lineno),
                getattr(node, "col_offset", 0),
                fn.qualname,
                f"iterates over {what} — set order is not deterministic "
                "across processes; wrap the iterable in sorted()",
            )
        )

    for node in shallow_nodes(fn.node):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _set_expr(node.iter, set_names):
                fire(node, "a set")
        elif isinstance(node, ast.comprehension):
            if _set_expr(node.iter, set_names):
                fire(node.iter, "a set (comprehension)")


def _check_mr003(
    fn: FunctionInfo,
    bindings: ImportBindings,
    local_names: set[str],
    emit: list[Finding],
    path: str,
) -> None:
    """Unseeded randomness / wall-clock reads in MR or kernel code.

    Calls are resolved through the import-binding pass, so aliases
    (``import time as t; t.time()``) and from-imports (``from random
    import random as rnd; rnd()``) are caught under their canonical
    dotted names.
    """
    for node in shallow_nodes(fn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        root = func.id if isinstance(func, ast.Name) else root_name(func)
        if root is None or root in local_names:
            continue
        dotted = bindings.resolve(func)
        if dotted is None:
            continue
        what = nondet_reason(dotted)
        if what is None:
            continue
        emit.append(
            Finding(
                "MR003",
                path,
                node.lineno,
                node.col_offset,
                fn.qualname,
                f"calls {what} — kernel/MR code must be deterministic; "
                "use random.Random(seed) or pass values in",
            )
        )


def _unpicklable_call(node: ast.expr, bindings: ImportBindings) -> str | None:
    """Describe *node* if it constructs an unpicklable object."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    dotted = bindings.resolve(func)
    if dotted is not None:
        parts = dotted.split(".")
        if parts[0] in _UNPICKLABLE_ROOTS or (
            len(parts) > 1 and parts[-1] in _UNPICKLABLE_NAMES
        ):
            return f"{dotted}(...)"
    if isinstance(func, ast.Name) and func.id in _UNPICKLABLE_NAMES:
        return f"{func.id}(...)"
    if isinstance(func, ast.Attribute):
        root = root_name(func.value)
        if root in _UNPICKLABLE_ROOTS or (
            root is not None and func.attr in _UNPICKLABLE_NAMES
        ):
            return f"{root}.{func.attr}(...)"
    return None


def _scope_unpicklable_bindings(
    nodes: Iterable[ast.AST], bindings: ImportBindings
) -> dict[str, str]:
    """Names bound to unpicklable constructions within *nodes*."""
    found: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Assign):
            what = _unpicklable_call(node.value, bindings)
            if what is not None:
                for target in node.targets:
                    for name in target_names(target):
                        found[name] = what
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                what = _unpicklable_call(item.context_expr, bindings)
                if what is not None and item.optional_vars is not None:
                    for name in target_names(item.optional_vars):
                        found[name] = what
    return found


def _check_mr004(
    fn: FunctionInfo,
    tree: ast.Module,
    bindings: ImportBindings,
    local_names: set[str],
    emit: list[Finding],
    path: str,
) -> None:
    """Closure capture of unpicklable objects in MR functions."""
    outer: dict[str, str] = {}
    # module scope first, then enclosing functions innermost-last so the
    # nearest binding wins
    outer.update(_scope_unpicklable_bindings(tree.body, bindings))
    for enclosing in fn.enclosing:
        outer.update(_scope_unpicklable_bindings(shallow_nodes(enclosing), bindings))
    if not outer:
        return
    flagged: set[str] = set()
    for node in shallow_nodes(fn.node):
        if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
            continue
        name = node.id
        if name in local_names or name in flagged or name not in outer:
            continue
        flagged.add(name)
        emit.append(
            Finding(
                "MR004",
                path,
                node.lineno,
                node.col_offset,
                fn.qualname,
                f"captures {name!r} bound to {outer[name]} — file handles, "
                "locks and pools cannot be shipped to fork/pickle workers",
            )
        )


def _check_mr005(fn: FunctionInfo, emit: list[Finding], path: str) -> None:
    """Stage-2 emit keys must be inline composite tuples (>= 2 parts)."""
    for node in shallow_nodes(fn.node):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
            and node.args
        ):
            continue
        key = node.args[0]
        if not (isinstance(key, ast.Tuple) and len(key.elts) >= 2):
            emit.append(
                Finding(
                    "MR005",
                    path,
                    node.lineno,
                    node.col_offset,
                    fn.qualname,
                    "Stage-2 emit key must be an inline (group, length, ...) "
                    "tuple — the length component drives PK eviction and R-S "
                    "streaming order",
                )
            )


def _check_mr006(fn: FunctionInfo, emit: list[Finding], path: str) -> None:
    """Mutable default arguments on MR functions."""
    args = fn.node.args
    defaults = [*args.defaults, *(d for d in args.kw_defaults if d is not None)]
    for default in defaults:
        mutable = isinstance(
            default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ) or (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in ("list", "dict", "set", "bytearray", "defaultdict")
        )
        if mutable:
            emit.append(
                Finding(
                    "MR006",
                    path,
                    default.lineno,
                    default.col_offset,
                    fn.qualname,
                    "mutable default argument — shared across every task "
                    "that reuses the function object (hidden mapper state)",
                )
            )


def _is_noop_body(body: list[ast.stmt]) -> bool:
    """Whether an except body does nothing (``pass`` / ``...`` only)."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


def _check_mr007(fn: FunctionInfo, emit: list[Finding], path: str) -> None:
    """Silent exception swallowing inside MR/kernel code.

    Fires on a bare ``except:`` always (it also catches worker-control
    exceptions like the fault injector's and ``KeyboardInterrupt``),
    and on ``except Exception/BaseException`` whose body is only
    ``pass``/``...`` — a failure absorbed there never reaches the retry
    layer, so the task reports success over partial output.
    """
    for node in shallow_nodes(fn.node):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            what = "a bare 'except:'"
        elif (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
            and _is_noop_body(node.body)
        ):
            what = f"'except {node.type.id}: pass'"
        else:
            continue
        emit.append(
            Finding(
                "MR007",
                path,
                node.lineno,
                node.col_offset,
                fn.qualname,
                f"{what} swallows task failures — the retry layer never "
                "sees them and partial output is reported as success; "
                "catch the specific exception or let it propagate",
            )
        )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _owns_pragma(name: str) -> bool:
    """mrlint warns about every pragma name that is not an MR1xx rule
    (those belong to mrflow)."""
    return not name.startswith("MR1")


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns findings sorted by location."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                PARSE_ERROR,
                path,
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                "",
                f"syntax error: {exc.msg}",
            )
        ]
    module_names = module_bindings(tree)
    bindings = ImportBindings.collect(tree)
    basename = os.path.basename(path)
    is_stage2 = "stage2" in basename
    findings: list[Finding] = []
    for fn in discover_functions(tree):
        if not (fn.is_mr or fn.is_kernel):
            continue
        local_names = local_bindings(fn.node)
        enclosing_names: set[str] = set()
        for enclosing in fn.enclosing:
            enclosing_names.update(local_bindings(enclosing))
        if fn.is_mr:
            _check_mr001(fn, module_names, local_names, enclosing_names, findings, path)
            _check_mr002(fn, findings, path)
            _check_mr004(fn, tree, bindings, local_names, findings, path)
            _check_mr006(fn, findings, path)
            if is_stage2:
                _check_mr005(fn, findings, path)
        if fn.is_mr or fn.is_kernel:
            _check_mr003(fn, bindings, local_names, findings, path)
            _check_mr007(fn, findings, path)
        if fn.is_kernel and not fn.is_mr:
            _check_mr002(fn, findings, path)
    suppressions = Suppressions.parse(source)
    if suppressions.by_line:
        findings = apply_suppressions(findings, suppressions, path, _owns_pragma)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: str) -> list[Finding]:
    """Lint one ``.py`` file."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Lint every ``.py`` file under *paths* (files or directory trees)."""
    findings: list[Finding] = []
    for filename in iter_py_files(paths):
        findings.extend(lint_file(filename))
    return findings


# retained for backward compatibility with older imports
_iter_py_files = iter_py_files
_discover = discover_functions
_Function = FunctionInfo
