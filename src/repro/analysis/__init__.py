"""Static and dynamic verification of the MapReduce contract.

:mod:`repro.analysis.mrlint`
    AST-based linter enforcing the MR contract (deterministic, pure,
    pickle-safe mapper/reducer/kernel code).  ``python -m repro lint``.

:mod:`repro.analysis.mrflow`
    Whole-program dataflow analyzer for *cross-stage* contracts:
    interprocedural determinism taint, emit-shape vs reducer/partitioner
    agreement, counter-name registry, task-memory release.
    ``python -m repro flow``.

:mod:`repro.analysis.common`
    Shared AST infrastructure (discovery, import bindings, inline
    ``# mrlint: disable=...`` suppressions) used by both analyzers.

:mod:`repro.analysis.reporting`
    text/json/SARIF rendering and the committed-baseline mechanism.

:mod:`repro.analysis.sanitize`
    Runtime sanitizer mode (``JoinConfig.sanitize`` /
    ``REPRO_SANITIZE=1``): reduce-input sortedness, sampled filter
    admissibility oracle, index byte accounting.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

from repro.analysis.sanitize import (
    CHECKS,
    VIOLATIONS,
    Sanitizer,
    env_sanitize,
    make_sanitizer,
    sanitize_active,
)

#: the static analyzers are tools, not part of a join
_LAZY = {
    **dict.fromkeys(
        ("DYNAMIC_COUNTER_PREFIXES", "FLOW_RULES", "analyze_paths",
         "build_counter_registry", "render_counter_registry"),
        "repro.analysis.mrflow",
    ),
    **dict.fromkeys(
        ("RULES", "Finding", "lint_file", "lint_paths", "lint_source"),
        "repro.analysis.mrlint",
    ),
    **dict.fromkeys(
        ("apply_baseline", "load_baseline", "render_findings", "write_baseline"),
        "repro.analysis.reporting",
    ),
}
def __getattr__(name: str) -> Any:  # PEP 562: import on first use
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), name)


__all__ = [
    "RULES",
    "FLOW_RULES",
    "DYNAMIC_COUNTER_PREFIXES",
    "Finding",
    "lint_file",
    "lint_paths",
    "lint_source",
    "analyze_paths",
    "build_counter_registry",
    "render_counter_registry",
    "apply_baseline",
    "load_baseline",
    "render_findings",
    "write_baseline",
    "CHECKS",
    "VIOLATIONS",
    "Sanitizer",
    "env_sanitize",
    "make_sanitizer",
    "sanitize_active",
]
