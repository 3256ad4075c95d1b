"""Static and dynamic verification of the MapReduce contract.

:mod:`repro.analysis.mrlint`
    The static analyzer, ``python -m repro lint``: one load of the
    source tree, one rule table — deterministic, pure, fork-safe
    mapper/reducer/kernel code (through the call graph too) — plus
    the counter-name registry check.

:mod:`repro.analysis.common`
    Its AST infrastructure: function discovery, import bindings, the
    program model.

:mod:`repro.analysis.counter_names`
    The generated counter-name registry ``lint --check-registry``
    compares with the source tree.

:mod:`repro.analysis.reporting`
    text/SARIF rendering of findings.

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

#: the static analyzer is a tool, not part of a join
_LAZY = {
    **dict.fromkeys(
        ("RULES", "Finding", "build_counter_registry", "lint_file",
         "lint_paths", "lint_source", "render_counter_registry"),
        "repro.analysis.mrlint",
    ),
    "render_findings": "repro.analysis.reporting",
}


def __getattr__(name: str) -> Any:  # PEP 562: import on first use
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), name)


__all__ = [
    "RULES",
    "Finding",
    "lint_file",
    "lint_paths",
    "lint_source",
    "build_counter_registry",
    "render_counter_registry",
    "render_findings",
    "CHECKS",
    "VIOLATIONS",
    "Sanitizer",
    "env_sanitize",
    "make_sanitizer",
    "sanitize_active",
]
