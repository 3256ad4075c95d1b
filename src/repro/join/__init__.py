"""The paper's contribution: 3-stage parallel set-similarity joins.

Stage 1 (token ordering): :mod:`repro.join.stage1` — BTO, OPTO.
Stage 2 (RID-pair generation): :mod:`repro.join.stage2` (self-join BK,
PK), :mod:`repro.join.stage2_rs` (R-S variants).
Stage 3 (record join): :mod:`repro.join.stage3` — BRJ, OPRJ.
Section 5 (insufficient memory): :mod:`repro.join.blocks`.

End-to-end drivers live in :mod:`repro.join.driver`.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: resolved on first use: a run without ``--checkpoint`` never loads
#: the checkpoint store (nor ``pickle``)
_LAZY = {
    **dict.fromkeys(
        ("CheckpointMismatchError", "JoinCheckpoint"), "repro.join.checkpoint"
    ),
    "JoinConfig": "repro.join.config",
    **dict.fromkeys(
        ("RecordSchema", "join_value", "make_line", "parse_fields", "rid_of"),
        "repro.join.records",
    ),
    **dict.fromkeys(
        ("JoinReport", "set_similarity_rs_join", "set_similarity_self_join",
         "ssjoin_rs", "ssjoin_self"),
        "repro.join.driver",
    ),
}


def __getattr__(name: str) -> Any:  # PEP 562: import on first use
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), name)


__all__ = [
    "CheckpointMismatchError",
    "JoinCheckpoint",
    "JoinConfig",
    "JoinReport",
    "RecordSchema",
    "join_value",
    "make_line",
    "parse_fields",
    "rid_of",
    "set_similarity_rs_join",
    "set_similarity_self_join",
    "ssjoin_rs",
    "ssjoin_self",
]
