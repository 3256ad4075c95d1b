"""mrlint — static analyzer for the MapReduce contract.

The correctness of the pipeline rests on invariants the runtime never
checks: mappers and reducers must be pure with respect to module state
(tasks re-run and re-order freely), nothing order-nondeterministic may
flow into ``emit()`` (partition contents must be byte-identical across
the sequential engine and the pooled one), kernel code must be
deterministic (no unseeded randomness, no wall-clock reads), closures must
not capture handles or locks that ``fork`` would duplicate into every
pool worker.  The contracts
*between* stages (emit shapes, the Stage-2 ``(group, length)`` keys,
counter names) are held at run time and by ``--check-registry``
(DESIGN.md §5c).

``mrlint`` loads a source tree once (every file read, parsed and
function-discovered one time — stdlib :mod:`ast` only, no third-party
dependency), builds a module-level call graph, and enforces those
invariants mechanically:

=======  ==============================================================
rule     violation
=======  ==============================================================
MR000    file does not parse (pseudo-rule)
MR001    MR function mutates module-level state (stateful mapper)
MR002    iteration over a ``set``/``frozenset`` in an MR/kernel function
         that feeds ``emit()``/``write()``/returned pairs (unordered
         iteration breaks byte-identical output; wrap in ``sorted()``)
MR003    unseeded randomness or wall-clock read in MR/kernel code
         (``random.*`` module functions, ``time.time``, ``os.urandom``,
         ``uuid.uuid4``, ``datetime.now``; ``random.Random(seed)`` is
         the sanctioned form) — import aliases (``import time as t``,
         ``from random import random as rnd``) are resolved
MR004    MR closure captures a file handle, a ``threading``/
         ``multiprocessing`` primitive or a socket — jobs reach pool
         workers by ``fork`` (nothing pickles a closure), which
         duplicates the object into every worker: handles share one
         file offset, locks are copied in whatever state they were in
MR006    MR function declares a mutable default argument (hidden
         cross-task state)
MR007    silent exception swallowing in MR/kernel code (bare
         ``except:`` or ``except Exception: pass``) — a swallowed task
         failure looks like success, defeating the retry layer and
         corrupting output silently
MR101    an MR002/MR003 source reaches a mapper/reducer/kernel sink
         *through the call graph* — it sits in a helper one or more
         calls away; the message names the whole chain
=======  ==============================================================

What is nondeterministic is decided in one place
(:func:`_nondet_sources`); only the number of calls between the source
and the sink picks the id — none: MR002/MR003, one or more: MR101.
Two things are sanctioned, at every distance alike.  Set iteration
consumed directly by ``sorted()``/``min()``/``max()``/``sum()``/
``len()`` cannot leak its order.  Monotonic timers
(``time.perf_counter``, ``time.monotonic``) carry no epoch and can
only measure elapsed time, which is what the runtime under every
whole-join entry point does (task CPU for the cost model, tracer
spans, stage wall seconds); the analyzer cannot tell a measurement
that feeds a report from one that feeds ``emit()``, so it leaves the
second to the engine-differential tests (DESIGN.md §5c).

Function discovery is structural, not configured:

* functions named ``mapper``/``reducer``/``combiner`` (or ending in
  ``_mapper``/``_reducer``/``_combiner``) and the ``map_setup`` /
  ``reduce_teardown`` hook family;
* any function passed as a ``mapper=``/``reducer=``/``combiner=``/
  ``*_setup=``/``*_teardown=`` keyword to a ``*Job(...)`` constructor;
* kernel code: methods of classes whose name ends in ``Index`` and
  functions ending in ``_join`` or ``_verify`` (the determinism rules
  and MR007 only).

Run it as ``python -m repro lint src/`` (exit status 1 on findings) or
programmatically via :func:`lint_paths`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.common import (
    Finding,
    FunctionInfo,
    ImportBindings,
    Module,
    Program,
    assigned_locals,
    load_program,
    local_bindings,
    module_bindings,
    read_sources,
    root_name,
    shallow_nodes,
    target_names,
)

__all__ = [
    "RULES",
    "Finding",
    "build_counter_registry",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_counter_registry",
]

#: rule id -> one-line description (stable, documented in docs/API.md)
RULES: dict[str, str] = {
    "MR000": "file does not parse",
    "MR001": "MR function mutates module-level state",
    "MR002": "set iteration on a path that feeds emit()/returned pairs",
    "MR003": "unseeded randomness or wall-clock read in MR/kernel code",
    "MR004": "MR closure captures a handle/lock/pool that fork duplicates into every worker",
    "MR006": "MR function declares a mutable default argument",
    "MR007": "MR/kernel code silently swallows exceptions (defeats retry layer)",
    "MR101": "nondeterminism reaches an MR/kernel sink through the call graph",
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

#: call roots that construct objects a forked worker must not share
_FORK_UNSAFE_ROOTS = frozenset({"threading", "multiprocessing", "socket"})
_FORK_UNSAFE_NAMES = frozenset(
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


# ---------------------------------------------------------------------------
# MR001, MR004, MR006, MR007: per-function rules
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


def _fork_unsafe_call(node: ast.expr, bindings: ImportBindings) -> str | None:
    """Describe *node* if it constructs a handle, lock, pool or socket."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    dotted = bindings.resolve(func)
    if dotted is not None:
        parts = dotted.split(".")
        if parts[0] in _FORK_UNSAFE_ROOTS or (
            len(parts) > 1 and parts[-1] in _FORK_UNSAFE_NAMES
        ):
            return f"{dotted}(...)"
    if isinstance(func, ast.Name) and func.id in _FORK_UNSAFE_NAMES:
        return f"{func.id}(...)"
    if isinstance(func, ast.Attribute):
        root = root_name(func.value)
        if root in _FORK_UNSAFE_ROOTS or (
            root is not None and func.attr in _FORK_UNSAFE_NAMES
        ):
            return f"{root}.{func.attr}(...)"
    return None


def _scope_fork_unsafe_bindings(
    nodes: Iterable[ast.AST], bindings: ImportBindings
) -> dict[str, str]:
    """Names bound to fork-unsafe constructions within *nodes*."""
    found: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Assign):
            what = _fork_unsafe_call(node.value, bindings)
            if what is not None:
                for target in node.targets:
                    for name in target_names(target):
                        found[name] = what
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                what = _fork_unsafe_call(item.context_expr, bindings)
                if what is not None and item.optional_vars is not None:
                    for name in target_names(item.optional_vars):
                        found[name] = what
    return found


def _check_mr004(
    fn: FunctionInfo,
    mod: Module,
    local_names: set[str],
    emit: list[Finding],
) -> None:
    """Closure capture of handles/locks/pools in MR functions.

    A job reaches its pool's workers as a fork-inherited initializer
    argument (``executor._W_JOB``): a closure is never pickled, it is
    duplicated, and so is everything it captured.
    """
    outer: dict[str, str] = {}
    # module scope first, then enclosing functions innermost-last so the
    # nearest binding wins
    outer.update(_scope_fork_unsafe_bindings(mod.tree.body, mod.bindings))
    for enclosing in fn.enclosing:
        outer.update(_scope_fork_unsafe_bindings(shallow_nodes(enclosing), mod.bindings))
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
                mod.path,
                node.lineno,
                node.col_offset,
                fn.qualname,
                f"captures {name!r} bound to {outer[name]} — fork duplicates "
                "file handles, locks and pools into every pool worker "
                "(shared file offsets, locks copied in whatever state they "
                "were in)",
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
# MR002, MR003, MR101: nondeterminism — one seed, the hop count picks the id
# ---------------------------------------------------------------------------

#: time-module attributes that read the wall clock.  The monotonic
#: timers (perf_counter, monotonic, process_time) are deliberately not
#: here — see the module docstring for the one policy
CLOCK_ATTRS = frozenset({"time", "time_ns"})

#: builtins whose result does not depend on the order of the iterable
#: they consume — a set iterated straight into one cannot leak its order
_ORDER_INSENSITIVE = frozenset({"sorted", "min", "max", "sum", "len"})


def nondet_reason(dotted: str) -> str | None:
    """Describe why a call to the canonical dotted name *dotted* is
    nondeterministic, or ``None`` if it is not a known source.

    ``random.Random`` is the sanctioned (seedable) form and is excluded;
    everything else reaching the process-global RNG, the wall clock, or
    an entropy source is a taint seed.
    """
    parts = dotted.split(".")
    if len(parts) < 2:
        return None
    top, leaf = parts[0], parts[-1]
    if top == "random" and len(parts) == 2 and leaf != "Random":
        return f"random.{leaf}() (process-global, unseeded RNG)"
    if top == "time" and len(parts) == 2 and leaf in CLOCK_ATTRS:
        return f"time.{leaf}() (wall clock)"
    if top == "os" and len(parts) == 2 and leaf == "urandom":
        return "os.urandom() (entropy source)"
    if top == "uuid" and len(parts) == 2 and leaf in ("uuid1", "uuid4"):
        return f"uuid.{leaf}() (random identifier)"
    if top == "datetime" and leaf in ("now", "utcnow", "today"):
        return f"datetime …{leaf}() (wall clock)"
    if top == "secrets":
        return f"secrets.{leaf}() (entropy source)"
    return None


def _set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """Whether *node* provably evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _set_expr(node.left, set_names) or _set_expr(node.right, set_names)
    return False


@dataclass(frozen=True)
class _Source:
    """One nondeterminism source inside a function body."""

    line: int
    col: int
    rule: str  # what it is called in the function it sits in: MR002 / MR003
    what: str


def _nondet_sources(mod: Module, fn: FunctionInfo) -> list[_Source]:
    """Every nondeterminism source in *fn*'s own body, in source order:
    calls that resolve (through the import bindings, so aliases count)
    to a :func:`nondet_reason` name, and — when the function feeds
    output (emits/writes/returns/yields) — iteration over a set that
    no :data:`_ORDER_INSENSITIVE` builtin consumes directly."""
    sources: list[_Source] = []
    local_names = local_bindings(fn.node)
    feeds_output = False
    set_names: set[str] = set()
    order_free: set[ast.comprehension] = set()
    for node in shallow_nodes(fn.node):
        if isinstance(node, ast.Call):
            func = node.func
            root = func.id if isinstance(func, ast.Name) else root_name(func)
            if root is not None and root not in local_names:
                dotted = mod.bindings.resolve(func)
                what = nondet_reason(dotted) if dotted is not None else None
                if what is not None:
                    sources.append(_Source(node.lineno, node.col_offset, "MR003", what))
            if isinstance(func, ast.Attribute) and func.attr in ("emit", "write"):
                feeds_output = True
            elif isinstance(func, ast.Name) and func.id in _ORDER_INSENSITIVE:
                for arg in node.args:
                    order_free.update(getattr(arg, "generators", ()))
        elif isinstance(node, ast.Return) and node.value is not None:
            feeds_output = True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            feeds_output = True
        elif isinstance(node, ast.Assign) and _set_expr(node.value, set_names):
            for target in node.targets:
                set_names.update(target_names(target))
    if feeds_output:
        for node in shallow_nodes(fn.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _set_expr(node.iter, set_names):
                    sources.append(_Source(node.lineno, node.col_offset, "MR002", "a set"))
            elif isinstance(node, ast.comprehension) and node not in order_free:
                if _set_expr(node.iter, set_names):
                    sources.append(
                        _Source(
                            node.iter.lineno,
                            node.iter.col_offset,
                            "MR002",
                            "a set (comprehension)",
                        )
                    )
    sources.sort(key=lambda s: (s.line, s.col))
    return sources


@dataclass(frozen=True)
class _CallSite:
    callee: str
    line: int
    col: int


def _resolve_dotted(dotted: str, program: Program) -> str | None:
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


def _resolve_call(
    call: ast.Call, mod: Module, fn: FunctionInfo, program: Program, shadowed: set[str]
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


def _call_graph(program: Program) -> dict[str, list[_CallSite]]:
    edges: dict[str, list[_CallSite]] = {}
    for fid in sorted(program.functions):
        mod, fn = program.functions[fid]
        shadowed = assigned_locals(fn.node)
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


@dataclass(frozen=True)
class _Taint:
    sources: list[_Source]  # in the function at the end of the chain
    chain: tuple[str, ...]  # callee fids from the tainted fn toward the source
    line: int
    col: int


def _propagate_taint(program: Program) -> dict[str, _Taint]:
    """Which functions nondeterminism reaches: those holding a source
    (empty chain), then callers of tainted functions to a fixpoint,
    each keeping its first (position-sorted) witness chain."""
    taint: dict[str, _Taint] = {}
    for fid in sorted(program.functions):
        sources = _nondet_sources(*program.functions[fid])
        if sources:
            taint[fid] = _Taint(sources, (), sources[0].line, sources[0].col)
    edges = _call_graph(program)
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
                    callee_taint.sources,
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


def _check_nondeterminism(
    mod: Module, fn: FunctionInfo, taint: _Taint, emit: list[Finding]
) -> None:
    """Report what reaches the MR/kernel sink *fn*: every source in its
    own body under that source's id, or the first chain into a helper
    as MR101."""
    if not taint.chain:
        for source in taint.sources:
            if source.rule == "MR002":
                message = (
                    f"iterates over {source.what} — set order is not deterministic "
                    "across processes; wrap the iterable in sorted()"
                )
            else:
                message = (
                    f"calls {source.what} — kernel/MR code must be deterministic; "
                    "use random.Random(seed) or pass values in"
                )
            emit.append(
                Finding(source.rule, mod.path, source.line, source.col, fn.qualname, message)
            )
        return
    first = taint.sources[0]
    reason = (
        "iterates over a set on an output path (unordered across processes)"
        if first.rule == "MR002"
        else f"calls {first.what}"
    )
    chain = " -> ".join(
        [fn.qualname, *(_fid_label(step, mod.name) for step in taint.chain)]
    )
    kind = fn.role or ("kernel" if fn.is_kernel else "MR")
    emit.append(
        Finding(
            "MR101",
            mod.path,
            taint.line,
            taint.col,
            fn.qualname,
            f"nondeterminism reaches this {kind} sink through the call "
            f"chain {chain}, which {reason} — every path into "
            "emit() must be deterministic for byte-identical output",
        )
    )


# ---------------------------------------------------------------------------
# the counter-name registry (--check-registry)
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


def _lookup_constant(dotted: str, program: Program) -> str | None:
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        mod = program.by_name.get(".".join(parts[:split]))
        if mod is not None and split == len(parts) - 1:
            return mod.constants.get(parts[-1])
    return None


def _resolve_counter_name(
    expr: ast.expr,
    mod: Module,
    scope_consts: dict[str, str],
    program: Program,
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


def _iter_counter_sites(
    mod: Module, program: Program
) -> Iterable[tuple[ast.expr, str | None, str]]:
    """Every counter site in *mod* as ``(arg_expr, resolved_name,
    function_qualname)`` — inside functions, then at module scope."""
    for fn in mod.functions.values():
        scope_consts = _scope_string_constants(fn)
        for node in shallow_nodes(fn.node):
            arg = _counter_site_arg(node)
            if arg is None:
                continue
            yield arg, _resolve_counter_name(arg, mod, scope_consts, program), fn.qualname
    for node in shallow_nodes(mod.tree):
        arg = _counter_site_arg(node)
        if arg is None:
            continue
        yield arg, _resolve_counter_name(arg, mod, {}, program), ""


def build_counter_registry(paths: Iterable[str]) -> frozenset[str]:
    """Every statically-resolvable counter/metric name used at a
    counter site under *paths*."""
    program = load_program(read_sources(paths))
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
        "Regenerate with ``python -m repro lint src/ --write-counter-registry``",
        "after adding a counter; CI asserts this file matches the source tree",
        "(``--check-registry``), so a typo'd counter name at an increment site",
        "shows up as a registry diff a reviewer sees.  Do not edit by hand.",
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
# entry points
# ---------------------------------------------------------------------------


def _analyze(program: Program) -> list[Finding]:
    """Run every rule over *program*; findings sorted by location."""
    findings: list[Finding] = list(program.parse_failures)
    taint = _propagate_taint(program)
    for mod in program.modules:
        found: list[Finding] = []
        module_names = module_bindings(mod.tree)
        for fn in mod.functions.values():
            if not (fn.is_mr or fn.is_kernel):
                continue
            if fn.is_mr:
                local_names = local_bindings(fn.node)
                enclosing_names: set[str] = set()
                for enclosing in fn.enclosing:
                    enclosing_names.update(local_bindings(enclosing))
                _check_mr001(fn, module_names, local_names, enclosing_names, found, mod.path)
                _check_mr004(fn, mod, local_names, found)
                _check_mr006(fn, found, mod.path)
            fn_taint = taint.get(f"{mod.name}::{fn.qualname}")
            if fn_taint is not None:
                _check_nondeterminism(mod, fn, fn_taint, found)
            _check_mr007(fn, found, mod.path)
        findings.extend(found)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Analyze one module's source text as a one-file program."""
    return _analyze(load_program([(path, source)]))


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Analyze every ``.py`` file under *paths* (files or directory
    trees) as ONE program — calls and constants resolve across them."""
    return _analyze(load_program(read_sources(paths)))


def lint_file(path: str) -> list[Finding]:
    """Analyze one ``.py`` file."""
    return lint_paths([path])
