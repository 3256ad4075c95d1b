"""mrflow — interprocedural dataflow analyzer for cross-stage MR contracts.

:mod:`repro.analysis.mrlint` checks each mapper/reducer/kernel function
in isolation; this module checks the contracts *between* them.  It
parses a whole source tree at once (stdlib :mod:`ast` only), builds a
module-level call graph, and enforces five whole-program invariants the
runtime never sees until output silently diverges:

=======  ==============================================================
rule     violation
=======  ==============================================================
MR101    nondeterminism (unseeded randomness, wall-clock read, or
         unsorted-set iteration on an output path) reaches a
         mapper/reducer/kernel sink *through the call graph* — the
         source sits in a helper one or more calls away, where the
         intra-function rules MR002/MR003 cannot see it
MR102    a reducer destructures its value stream into a tuple arity no
         mapper in the module ever emits (``for a, b, c in values``
         against 4-tuple emits) — records would unpack-error or,
         worse, silently bind shifted fields
MR103    a ``partition``/``partitioner``/``sort_key``/``group_key``
         selector (or a reducer's ``key[i]``) indexes beyond every
         emitted key arity, or a ``shard_partition`` job's Stage-2
         keys lost the ``(route, shard, length, relation)`` components
         the PK eviction / R-S streaming order depends on
MR104    a counter/metric name at an ``increment``/``observe``/
         ``counters[...]`` site is not in the generated registry
         (:mod:`repro.analysis.counter_names`) — a typo'd name merges
         into nothing and the counter silently reads zero
MR106    simulated task memory charged via ``reserve_memory_for`` (the
         charged byte count captured into a variable) is not
         ``release_memory``-ed on every exception edge — an exception
         mid-group leaves the byte meter inflated, so every later
         reservation in the task sees a phantom budget deficit
=======  ==============================================================

Shapes use a constant-arity tuple abstraction: emit keys/values are
tracked as sets of possible tuple arities through local assignments,
tuple concatenation (``(step, role) + value``) and constant slices
(``value[1:]``), which covers every composite-key shape the Stage-2
planners emit — including the split-mode ``(route, shard, length,
relation)`` keys added by hot-group splitting.  Whenever any emit
shape in a module is not statically known, the shape rules stand down
for that module rather than guess (documented approximation; see
DESIGN.md).

Findings reuse the mrlint :class:`~repro.analysis.common.Finding` type
and the same ``# mrlint: disable=MR101`` inline suppressions.  Run as
``python -m repro flow src/`` (exit 1 on findings), combine with the
linter via ``python -m repro lint --flow``, or call
:func:`analyze_paths`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
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
    module_constants,
    nondet_reason,
    root_name,
    set_expr,
    shallow_nodes,
    target_names,
)
from repro.analysis.counter_names import KNOWN_COUNTER_NAMES

__all__ = [
    "DYNAMIC_COUNTER_PREFIXES",
    "FLOW_RULES",
    "analyze_paths",
    "build_counter_registry",
    "render_counter_registry",
]

#: rule id -> one-line description (stable, documented in docs/API.md)
FLOW_RULES: dict[str, str] = {
    "MR101": "nondeterminism reaches an MR/kernel sink through the call graph",
    "MR102": "reducer destructures a value-tuple arity no mapper emits",
    "MR103": "key selector indexes beyond every emitted key shape (or split key lost its components)",
    "MR104": "counter/metric name not in the generated registry",
    "MR106": "charged task memory not released on every exception edge",
}

#: counter-name families built dynamically at runtime (f-strings); names
#: under these prefixes are exempt from the registry check
DYNAMIC_COUNTER_PREFIXES: tuple[str, ...] = ("hist.", "sanitize.false_negative.")

#: method names too generic to resolve by uniqueness — they collide with
#: builtin container/str/IO methods on receivers the analyzer cannot type
_COMMON_METHOD_NAMES = frozenset(
    {
        "add", "append", "acquire", "cast", "clear", "close", "copy", "count",
        "decode", "discard", "dumps", "encode", "endswith", "extend", "find",
        "flush", "format", "frombytes", "get", "imap", "index", "insert",
        "items", "join", "keys", "loads", "lower", "map", "next", "open",
        "pop", "popitem", "put", "read", "readline", "readlines", "recv",
        "release", "remove", "replace", "reverse", "rfind", "rsplit",
        "rstrip", "seek", "send", "setdefault", "sort", "split", "startswith",
        "strip", "submit", "tell", "tobytes", "update", "upper", "values",
        "write", "writelines",
    }
)

#: monotonic timers carry no epoch and are the standard instrumentation
#: idiom (Tracer spans, retry backoff) — excluded from *interprocedural*
#: seeding; direct use inside an MR function is still mrlint MR003
_MONOTONIC_TIMERS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)

_SELECTOR_KWARGS = ("partition", "partitioner", "sort_key", "group_key")
_PARTITION_HELPERS = ("shard_partition", "hash_partition")


# ---------------------------------------------------------------------------
# program model
# ---------------------------------------------------------------------------


@dataclass
class _Module:
    path: str
    name: str
    tree: ast.Module
    bindings: ImportBindings
    functions: dict[str, FunctionInfo]
    constants: dict[str, str]
    suppressions: Suppressions


@dataclass
class _Program:
    modules: list[_Module]
    by_name: dict[str, _Module]
    functions: dict[str, tuple[_Module, FunctionInfo]]
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


def _load_program(paths: Iterable[str]) -> _Program:
    modules: list[_Module] = []
    failures: list[Finding] = []
    seen: set[str] = set()
    for filename in iter_py_files([os.fspath(p) for p in paths]):
        normalized = os.path.normpath(filename)
        if normalized in seen:
            continue
        seen.add(normalized)
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            failures.append(
                Finding(
                    PARSE_ERROR,
                    filename,
                    exc.lineno or 1,
                    (exc.offset or 1) - 1,
                    "",
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        name = _module_name(filename)
        modules.append(
            _Module(
                path=filename,
                name=name,
                tree=tree,
                bindings=ImportBindings.collect(tree, module_name=name),
                functions={fn.qualname: fn for fn in discover_functions(tree)},
                constants=module_constants(tree),
                suppressions=Suppressions.parse(source),
            )
        )
    by_name = {mod.name: mod for mod in modules}
    functions: dict[str, tuple[_Module, FunctionInfo]] = {}
    method_index: dict[str, list[str]] = {}
    for mod in modules:
        for qualname, info in mod.functions.items():
            fid = f"{mod.name}::{qualname}"
            functions[fid] = (mod, info)
            leaf = qualname.rsplit(".", 1)[-1]
            if info.in_class and not leaf.startswith("__"):
                method_index.setdefault(leaf, []).append(fid)
    return _Program(modules, by_name, functions, method_index, failures)


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CallSite:
    callee: str
    line: int
    col: int


def _resolve_dotted(dotted: str, program: _Program) -> str | None:
    """Map a dotted origin (``repro.join.stage2.project_record``) onto a
    function of an analyzed module, trying the longest module prefix."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split])
        mod = program.by_name.get(module_name)
        if mod is None:
            continue
        qualname = ".".join(parts[split:])
        if qualname in mod.functions:
            return f"{mod.name}::{qualname}"
        return None
    return None


def _value_locals(fn: FunctionInfo) -> set[str]:
    """Names bound by value (params/assignments) in *fn*'s scope — used
    to refuse resolution when a local shadows a function name."""
    defs: set[str] = set()
    for node in shallow_nodes(fn.node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.add(node.name)
    return local_bindings(fn.node) - defs


def _resolve_call(
    call: ast.Call, mod: _Module, fn: FunctionInfo, program: _Program, shadowed: set[str]
) -> str | None:
    """The analyzed function a call statically resolves to, if any."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
        if name in shadowed:
            return None
        qual_parts = fn.qualname.split(".")
        for depth in range(len(qual_parts), -1, -1):
            candidate = ".".join([*qual_parts[:depth], name])
            if candidate in mod.functions:
                return f"{mod.name}::{candidate}"
        origin = mod.bindings.members.get(name)
        if origin is not None:
            return _resolve_dotted(origin, program)
        return None
    if isinstance(func, ast.Attribute):
        dotted = mod.bindings.resolve(func)
        if dotted is not None:
            return _resolve_dotted(dotted, program)
        attr = func.attr
        if isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
            qual_parts = fn.qualname.split(".")
            for depth in range(len(qual_parts) - 1, 0, -1):
                candidate = ".".join([*qual_parts[:depth], attr])
                owner = mod.functions.get(candidate)
                if owner is not None and owner.in_class:
                    return f"{mod.name}::{candidate}"
            return None
        if attr in _COMMON_METHOD_NAMES or attr.startswith("__"):
            return None
        owners = program.method_index.get(attr, [])
        if len(owners) == 1:
            return owners[0]
    return None


def _call_graph(program: _Program) -> dict[str, list[_CallSite]]:
    edges: dict[str, list[_CallSite]] = {}
    for fid in sorted(program.functions):
        mod, fn = program.functions[fid]
        shadowed = _value_locals(fn)
        sites: list[_CallSite] = []
        seen: set[str] = set()
        for node in sorted(
            (n for n in shallow_nodes(fn.node) if isinstance(n, ast.Call)),
            key=lambda n: (n.lineno, n.col_offset),
        ):
            callee = _resolve_call(node, mod, fn, program, shadowed)
            if callee is None or callee == fid or callee in seen:
                continue
            seen.add(callee)
            sites.append(_CallSite(callee, node.lineno, node.col_offset))
        edges[fid] = sites
    return edges


# ---------------------------------------------------------------------------
# MR101: interprocedural determinism taint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Taint:
    reason: str
    chain: tuple[str, ...]  # callee fids from the tainted fn toward the source
    line: int
    col: int


def _direct_taint(mod: _Module, fn: FunctionInfo) -> tuple[str, int, int] | None:
    """The first in-function taint source of *fn*, if any: a resolved
    nondeterministic call, or unsorted-set iteration when the function
    feeds output (emits/returns/yields)."""
    sources: list[tuple[int, int, str]] = []
    locals_ = local_bindings(fn.node)
    feeds_output = False
    set_names: set[str] = set()
    for node in shallow_nodes(fn.node):
        if isinstance(node, ast.Call):
            func = node.func
            base = func.id if isinstance(func, ast.Name) else root_name(func)
            if base is not None and base not in locals_:
                dotted = mod.bindings.resolve(func)
                if dotted is not None and dotted not in _MONOTONIC_TIMERS:
                    what = nondet_reason(dotted)
                    if what is not None:
                        sources.append(
                            (node.lineno, node.col_offset, f"calls {what}")
                        )
            if isinstance(func, ast.Attribute) and func.attr in ("emit", "write"):
                feeds_output = True
        elif isinstance(node, ast.Return) and node.value is not None:
            feeds_output = True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            feeds_output = True
        elif isinstance(node, ast.Assign) and set_expr(node.value, set_names):
            for target in node.targets:
                set_names.update(target_names(target))
    if feeds_output:
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(fn.node):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent

        def order_insensitive(comp: ast.comprehension) -> bool:
            # a comprehension whose result feeds straight into sorted()/
            # min()/max() cannot leak set order
            owner = parents.get(comp)
            consumer = parents.get(owner) if owner is not None else None
            return (
                isinstance(consumer, ast.Call)
                and isinstance(consumer.func, ast.Name)
                and consumer.func.id in ("sorted", "min", "max", "sum", "len")
            )

        for node in shallow_nodes(fn.node):
            iterable: ast.expr | None = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterable = node.iter
            elif isinstance(node, ast.comprehension):
                if order_insensitive(node):
                    continue
                iterable = node.iter
            if iterable is not None and set_expr(iterable, set_names):
                sources.append(
                    (
                        iterable.lineno,
                        iterable.col_offset,
                        "iterates over a set on an output path "
                        "(unordered across processes)",
                    )
                )
    if not sources:
        return None
    line, col, reason = min(sources)
    return (reason, line, col)


def _propagate_taint(
    program: _Program, edges: dict[str, list[_CallSite]]
) -> dict[str, _Taint]:
    taint: dict[str, _Taint] = {}
    for fid in sorted(program.functions):
        mod, fn = program.functions[fid]
        direct = _direct_taint(mod, fn)
        if direct is not None:
            reason, line, col = direct
            taint[fid] = _Taint(reason, (), line, col)
    changed = True
    while changed:
        changed = False
        for caller in sorted(edges):
            if caller in taint:
                continue
            for site in edges[caller]:
                callee_taint = taint.get(site.callee)
                if callee_taint is None:
                    continue
                taint[caller] = _Taint(
                    callee_taint.reason,
                    (site.callee, *callee_taint.chain),
                    site.line,
                    site.col,
                )
                changed = True
                break
    return taint


def _fid_label(fid: str, sink_module: str) -> str:
    module_name, qualname = fid.split("::", 1)
    if module_name == sink_module:
        return qualname
    return f"{module_name.rsplit('.', 1)[-1]}.{qualname}"


def _check_mr101(
    program: _Program,
    edges: dict[str, list[_CallSite]],
    findings: list[Finding],
) -> None:
    taint = _propagate_taint(program, edges)
    for fid in sorted(program.functions):
        mod, fn = program.functions[fid]
        if not (fn.is_mr or fn.is_kernel):
            continue
        fn_taint = taint.get(fid)
        if fn_taint is None or not fn_taint.chain:
            # direct in-function sources are mrlint's MR002/MR003 turf
            continue
        chain = " -> ".join(
            [fn.qualname, *(_fid_label(step, mod.name) for step in fn_taint.chain)]
        )
        kind = fn.role or ("kernel" if fn.is_kernel else "MR")
        findings.append(
            Finding(
                "MR101",
                mod.path,
                fn_taint.line,
                fn_taint.col,
                fn.qualname,
                f"nondeterminism reaches this {kind} sink through the call "
                f"chain {chain}, which {fn_taint.reason} — every path into "
                "emit() must be deterministic for byte-identical output",
            )
        )


# ---------------------------------------------------------------------------
# MR102/MR103: emit key/value shape contracts
# ---------------------------------------------------------------------------


def _tuple_arity(
    expr: ast.expr, env: dict[str, frozenset[int] | None]
) -> frozenset[int] | None:
    """Possible tuple arities of *expr* under the constant-arity
    abstraction, or ``None`` when not statically known."""
    if isinstance(expr, ast.Tuple):
        if any(isinstance(elt, ast.Starred) for elt in expr.elts):
            return None
        return frozenset({len(expr.elts)})
    if isinstance(expr, ast.Name):
        return env.get(expr.id)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        left = _tuple_arity(expr.left, env)
        right = _tuple_arity(expr.right, env)
        if left is None or right is None:
            return None
        return frozenset({a + b for a in left for b in right})
    if isinstance(expr, ast.Subscript) and isinstance(expr.slice, ast.Slice):
        sl = expr.slice
        if sl.step is not None:
            return None
        base = _tuple_arity(expr.value, env)
        if base is None:
            return None
        if sl.lower is None:
            lower = 0
        elif isinstance(sl.lower, ast.Constant) and isinstance(sl.lower.value, int):
            lower = sl.lower.value
        else:
            return None
        if sl.upper is not None and not (
            isinstance(sl.upper, ast.Constant) and isinstance(sl.upper.value, int)
        ):
            return None
        arities: set[int] = set()
        for n in base:
            lo = lower if lower >= 0 else max(0, n + lower)
            if sl.upper is None:
                hi = n
            else:
                upper = sl.upper.value  # type: ignore[union-attr]
                assert isinstance(upper, int)
                hi = min(n, upper) if upper >= 0 else max(0, n + upper)
            arities.add(max(0, hi - lo))
        return frozenset(arities)
    return None


def _arity_env(fn: FunctionInfo) -> dict[str, frozenset[int] | None]:
    """Name -> possible tuple arities, from assignments in *fn* and its
    enclosing scopes.  Two fixpoint passes handle forward references
    between assignments; a name with any unknown assignment is poisoned
    to ``None``."""
    assigns: dict[str, list[ast.expr]] = {}
    scopes: list[ast.AST] = [*fn.enclosing, fn.node]
    for scope in scopes:
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in shallow_nodes(scope):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                assigns.setdefault(node.targets[0].id, []).append(node.value)
    env: dict[str, frozenset[int] | None] = {}
    for _ in range(2):
        for name in sorted(assigns):
            arities: set[int] = set()
            unknown = False
            for value in assigns[name]:
                result = _tuple_arity(value, env)
                if result is None:
                    unknown = True
                    break
                arities.update(result)
            env[name] = None if unknown else frozenset(arities)
    return env


@dataclass
class _EmitShapes:
    key_arities: set[int] = field(default_factory=set)
    keys_known: bool = True
    value_arities: set[int] = field(default_factory=set)
    values_known: bool = True
    sites: int = 0


def _emit_shapes(mod: _Module) -> _EmitShapes:
    """Union of key/value tuple arities over every ``ctx.emit`` site in
    the module's mapper/combiner functions."""
    shapes = _EmitShapes()
    for fn in mod.functions.values():
        if fn.role not in ("mapper", "combiner"):
            continue
        env = _arity_env(fn)
        for node in shallow_nodes(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and len(node.args) >= 2
            ):
                continue
            shapes.sites += 1
            key_arity = _tuple_arity(node.args[0], env)
            if key_arity is None:
                shapes.keys_known = False
            else:
                shapes.key_arities.update(key_arity)
            value_arity = _tuple_arity(node.args[1], env)
            if value_arity is None:
                shapes.values_known = False
            else:
                shapes.value_arities.update(value_arity)
    return shapes


def _positional_params(fn: FunctionInfo) -> list[str]:
    args = fn.node.args
    return [a.arg for a in (*args.posonlyargs, *args.args)]


def _check_mr102(mod: _Module, shapes: _EmitShapes, findings: list[Finding]) -> None:
    if not shapes.values_known or not shapes.value_arities:
        return
    emitted = sorted(shapes.value_arities)
    for fn in mod.functions.values():
        if fn.role not in ("reducer", "combiner"):
            continue
        params = _positional_params(fn)
        if len(params) < 2:
            continue
        values_param = params[1]
        for node in shallow_nodes(fn.node):
            target: ast.expr | None = None
            iterable: ast.expr | None = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                target, iterable = node.target, node.iter
            elif isinstance(node, ast.comprehension):
                target, iterable = node.target, node.iter
            if (
                target is None
                or not isinstance(iterable, ast.Name)
                or iterable.id != values_param
                or not isinstance(target, ast.Tuple)
                or any(isinstance(elt, ast.Starred) for elt in target.elts)
            ):
                continue
            arity = len(target.elts)
            if arity not in shapes.value_arities:
                findings.append(
                    Finding(
                        "MR102",
                        mod.path,
                        target.lineno,
                        target.col_offset,
                        fn.qualname,
                        f"reducer destructures {arity}-tuples from the value "
                        f"stream, but mappers in this module emit value "
                        f"arities {emitted} — records would unpack-error or "
                        "bind shifted fields",
                    )
                )


def _key_subscripts(body: ast.AST, key_name: str) -> list[tuple[int, ast.Subscript]]:
    """Constant integer subscripts of *key_name* within *body*."""
    found: list[tuple[int, ast.Subscript]] = []
    for node in ast.walk(body):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == key_name
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, int)
        ):
            found.append((node.slice.value, node))
    return found


def _check_mr103(mod: _Module, shapes: _EmitShapes, findings: list[Finding]) -> None:
    if not shapes.keys_known or not shapes.key_arities:
        return
    max_arity = max(shapes.key_arities)
    emitted = sorted(shapes.key_arities)
    is_stage2 = "stage2" in os.path.basename(mod.path)

    def check_body(body: ast.AST, key_name: str, function: str) -> None:
        for index, node in _key_subscripts(body, key_name):
            if -max_arity <= index < max_arity:
                continue
            findings.append(
                Finding(
                    "MR103",
                    mod.path,
                    node.lineno,
                    node.col_offset,
                    function,
                    f"indexes key[{index}] but every emitted key in this "
                    f"module has at most {max_arity} components "
                    f"(emitted arities: {emitted})",
                )
            )

    # reducers subscripting their key parameter
    for fn in mod.functions.values():
        if fn.role not in ("reducer", "combiner"):
            continue
        params = _positional_params(fn)
        if not params:
            continue
        check_body(fn.node, params[0], fn.qualname)

    # partition/sort/group selectors on *Job(...) constructions
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        callee_name = (
            callee.id
            if isinstance(callee, ast.Name)
            else callee.attr if isinstance(callee, ast.Attribute) else ""
        )
        if not callee_name.endswith("Job"):
            continue
        uses_shard_partition = False
        for kw in node.keywords:
            if kw.arg not in _SELECTOR_KWARGS or not isinstance(kw.value, ast.Lambda):
                continue
            lam = kw.value
            lam_params = [a.arg for a in (*lam.args.posonlyargs, *lam.args.args)]
            if not lam_params:
                continue
            check_body(lam.body, lam_params[0], f"{kw.arg} lambda")
            for inner in ast.walk(lam.body):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id in _PARTITION_HELPERS
                ):
                    uses_shard_partition = True
        if uses_shard_partition and is_stage2 and max_arity < 4:
            findings.append(
                Finding(
                    "MR103",
                    mod.path,
                    node.lineno,
                    node.col_offset,
                    "",
                    f"job partitions with shard_partition but the widest "
                    f"emitted key has only {max_arity} components — split-"
                    "mode Stage-2 keys must keep the (route, shard, length, "
                    "relation) shape PK eviction and R-S streaming depend on",
                )
            )


# ---------------------------------------------------------------------------
# MR104: counter-name registry
# ---------------------------------------------------------------------------


def _mentions_counter(expr: ast.expr) -> bool:
    """Whether an attribute/name chain textually mentions counters."""
    node: ast.expr | None = expr
    while node is not None:
        if isinstance(node, ast.Attribute):
            if "counter" in node.attr.lower():
                return True
            node = node.value
            continue
        if isinstance(node, ast.Name):
            return "counter" in node.id.lower()
        return False
    return False


def _counter_site_arg(node: ast.AST) -> ast.expr | None:
    """The name-argument expression of a counter/metric site, if *node*
    is one: ``<x>.increment(name, ...)``, ``<x>.observe(name, value)``,
    ``<counterish>.get(name, ...)``, ``observe_into(fn, name, ...)`` or
    ``<counterish>[name]``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and node.args:
            if func.attr in ("increment", "observe"):
                return node.args[0]
            if func.attr == "get" and _mentions_counter(func.value):
                return node.args[0]
        if (
            isinstance(func, ast.Name)
            and func.id == "observe_into"
            and len(node.args) >= 2
        ):
            return node.args[1]
        return None
    if isinstance(node, ast.Subscript) and _mentions_counter(node.value):
        return node.slice if isinstance(node.slice, ast.Constant) else None
    return None


def _lookup_constant(dotted: str, program: _Program) -> str | None:
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        mod = program.by_name.get(".".join(parts[:split]))
        if mod is not None and split == len(parts) - 1:
            return mod.constants.get(parts[-1])
    return None


def _resolve_counter_name(
    expr: ast.expr,
    mod: _Module,
    scope_consts: dict[str, str],
    program: _Program,
) -> str | None:
    if isinstance(expr, ast.Constant):
        return expr.value if isinstance(expr.value, str) else None
    if isinstance(expr, ast.Name):
        value = scope_consts.get(expr.id) or mod.constants.get(expr.id)
        if value is not None:
            return value
        origin = mod.bindings.members.get(expr.id)
        if origin is not None:
            return _lookup_constant(origin, program)
        return None
    if isinstance(expr, ast.Attribute):
        dotted = mod.bindings.resolve(expr)
        if dotted is not None:
            return _lookup_constant(dotted, program)
    return None


def _scope_string_constants(fn: FunctionInfo) -> dict[str, str]:
    consts: dict[str, str] = {}
    for scope in (*fn.enclosing, fn.node):
        for node in shallow_nodes(scope):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                consts[node.targets[0].id] = node.value.value
    return consts


def _module_level_nodes(tree: ast.Module) -> Iterable[ast.AST]:
    """Module-scope nodes, excluding function and class bodies."""
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _iter_counter_sites(
    mod: _Module, program: _Program
) -> Iterable[tuple[ast.expr, str | None, str]]:
    """Every counter site in *mod* as ``(arg_expr, resolved_name,
    function_qualname)``."""
    for fn in mod.functions.values():
        scope_consts = _scope_string_constants(fn)
        for node in shallow_nodes(fn.node):
            arg = _counter_site_arg(node)
            if arg is None:
                continue
            yield arg, _resolve_counter_name(arg, mod, scope_consts, program), fn.qualname
    for node in _module_level_nodes(mod.tree):
        arg = _counter_site_arg(node)
        if arg is None:
            continue
        yield arg, _resolve_counter_name(arg, mod, {}, program), ""


def _check_mr104(
    mod: _Module,
    program: _Program,
    registry: frozenset[str],
    findings: list[Finding],
) -> None:
    for arg, name, function in _iter_counter_sites(mod, program):
        if name is None:  # dynamic name (f-string, parameter) — out of scope
            continue
        if name in registry:
            continue
        if any(name.startswith(prefix) for prefix in DYNAMIC_COUNTER_PREFIXES):
            continue
        findings.append(
            Finding(
                "MR104",
                mod.path,
                arg.lineno,
                arg.col_offset,
                function,
                f"counter/metric name {name!r} is not in the generated "
                "registry (repro.analysis.counter_names) — a typo'd name "
                "merges into nothing and silently reads zero; fix the name "
                "or regenerate with --write-counter-registry",
            )
        )


def build_counter_registry(paths: Iterable[str]) -> frozenset[str]:
    """Every statically-resolvable counter/metric name used at a
    counter site under *paths*."""
    program = _load_program(paths)
    names: set[str] = set()
    for mod in program.modules:
        for _arg, name, _function in _iter_counter_sites(mod, program):
            if name is not None:
                names.add(name)
    return frozenset(names)


def render_counter_registry(names: frozenset[str]) -> str:
    """Source text of :mod:`repro.analysis.counter_names` for *names*."""
    lines = [
        '"""Generated registry of known counter/metric names.',
        "",
        "Regenerate with ``python -m repro flow src/ --write-counter-registry``",
        "after adding a counter; CI asserts this file matches the source tree",
        "(``--check-registry``), so a typo'd counter name at an increment site",
        "shows up either as an MR104 finding or as a registry diff a reviewer",
        "sees.  Do not edit by hand.",
        '"""',
        "",
        "from __future__ import annotations",
        "",
    ]
    if names:
        lines.append("KNOWN_COUNTER_NAMES: frozenset[str] = frozenset(")
        lines.append("    {")
        for name in sorted(names):
            lines.append(f"        {name!r},")
        lines.append("    }")
        lines.append(")")
    else:
        lines.append("KNOWN_COUNTER_NAMES: frozenset[str] = frozenset()")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# MR106: charged-memory release discipline
# ---------------------------------------------------------------------------


def _ancestors(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> Iterable[ast.AST]:
    current = parents.get(node)
    while current is not None:
        yield current
        current = parents.get(current)


def _contains(haystack: Iterable[ast.stmt], needle: ast.AST) -> bool:
    for stmt in haystack:
        for node in ast.walk(stmt):
            if node is needle:
                return True
    return False


def _charge_sites(fn: FunctionInfo) -> dict[str, list[ast.stmt]]:
    """Variables capturing charged bytes: ``Assign``/``AugAssign``
    statements whose RHS calls ``reserve_memory_for``.

    Bare ``reserve_memory(...)`` expression statements (the PK kernels'
    delta metering against an index's live bytes) have no captured
    balance to leak and are deliberately not anchored.
    """
    sites: dict[str, list[ast.stmt]] = {}
    for node in shallow_nodes(fn.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            var, value = node.targets[0].id, node.value
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            var, value = node.target.id, node.value
        else:
            continue
        if any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "reserve_memory_for"
            for call in ast.walk(value)
        ):
            sites.setdefault(var, []).append(node)
    return sites


def _check_mr106(mod: _Module, findings: list[Finding]) -> None:
    for fn in sorted(mod.functions.values(), key=lambda f: f.qualname):
        charges = _charge_sites(fn)
        if not charges:
            continue
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(fn.node):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        release_calls = [
            node
            for node in ast.walk(fn.node)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release_memory"
        ]

        def owning_release(name_node: ast.Name) -> ast.Call | None:
            for call in release_calls:
                if any(sub is name_node for sub in ast.walk(call)):
                    return call
            return None

        releases: dict[str, list[ast.AST]] = {var: [] for var in charges}
        escaped: set[str] = set()
        for use in ast.walk(fn.node):
            if (
                isinstance(use, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                and use is not fn.node
            ):
                for name in ast.walk(use):
                    if isinstance(name, ast.Name) and name.id in charges:
                        # captured by a closure: ownership unclear
                        escaped.add(name.id)
            if not (
                isinstance(use, ast.Name)
                and use.id in charges
                and isinstance(use.ctx, ast.Load)
            ):
                continue
            call = owning_release(use)
            if call is not None:
                releases[use.id].append(call)
                continue
            # the balance handed to another call, or returned/yielded,
            # transfers ownership out of this function — stand down
            cursor = parents.get(use)
            while cursor is not None and not isinstance(cursor, ast.stmt):
                if isinstance(cursor, (ast.Call, ast.Yield, ast.YieldFrom)):
                    escaped.add(use.id)
                    break
                cursor = parents.get(cursor)
            if isinstance(cursor, ast.Return):
                escaped.add(use.id)

        for var in sorted(charges):
            if var in escaped:
                continue
            sites = charges[var]
            var_releases = releases[var]
            if not var_releases:
                findings.append(
                    Finding(
                        "MR106",
                        mod.path,
                        sites[0].lineno,
                        sites[0].col_offset,
                        fn.qualname,
                        f"task memory charged into {var!r} via "
                        "reserve_memory_for is never released in this "
                        "function — the byte meter stays inflated for the "
                        "rest of the task",
                    )
                )
                continue
            for site in sites:
                protected = False
                for release in var_releases:
                    for ancestor in _ancestors(release, parents):
                        if not isinstance(ancestor, ast.Try):
                            continue
                        in_final = _contains(ancestor.finalbody, release)
                        in_handler = any(
                            _contains(handler.body, release)
                            for handler in ancestor.handlers
                        )
                        if (in_final or in_handler) and _contains(
                            ancestor.body, site
                        ):
                            protected = True
                            break
                    if protected:
                        break
                if not protected:
                    # charge immediately followed by its release leaves no
                    # raising statement in between; treat as safe
                    holder = parents.get(site)
                    body = getattr(holder, "body", None)
                    if isinstance(body, list) and site in body:
                        index = body.index(site)
                        if index + 1 < len(body) and any(
                            release in ast.walk(body[index + 1])
                            for release in var_releases
                        ):
                            protected = True
                if not protected:
                    findings.append(
                        Finding(
                            "MR106",
                            mod.path,
                            site.lineno,
                            site.col_offset,
                            fn.qualname,
                            f"task memory charged into {var!r} is not "
                            "released on every exception edge — an exception "
                            "between reserve_memory_for and release_memory "
                            "leaves the bytes charged; release in a finally "
                            "block",
                        )
                    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _owns_pragma(name: str) -> bool:
    """mrflow warns about MR1xx pragma names only; MR0xx pragmas belong
    to mrlint."""
    return name.startswith("MR1")


def analyze_paths(
    paths: Iterable[str], *, registry: frozenset[str] | None = None
) -> list[Finding]:
    """Run the whole-program analysis over *paths*; returns findings
    sorted by location."""
    program = _load_program(paths)
    if registry is None:
        registry = KNOWN_COUNTER_NAMES
    findings: list[Finding] = []
    edges = _call_graph(program)
    _check_mr101(program, edges, findings)
    for mod in program.modules:
        shapes = _emit_shapes(mod)
        if shapes.sites:
            _check_mr102(mod, shapes, findings)
            _check_mr103(mod, shapes, findings)
        _check_mr104(mod, program, registry, findings)
        _check_mr106(mod, findings)
    by_path: dict[str, list[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    result: list[Finding] = list(program.parse_failures)
    for mod in program.modules:
        module_findings = by_path.get(mod.path, [])
        if mod.suppressions.by_line or module_findings:
            module_findings = apply_suppressions(
                module_findings, mod.suppressions, mod.path, _owns_pragma
            )
        result.extend(module_findings)
    result.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
