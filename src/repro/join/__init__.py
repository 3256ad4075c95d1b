"""The paper's contribution: 3-stage parallel set-similarity joins.

Stage 1 (token ordering): :mod:`repro.join.stage1` — BTO, OPTO.
Stage 2 (RID-pair generation): :mod:`repro.join.stage2` (self-join BK,
PK), :mod:`repro.join.stage2_rs` (R-S variants).
Stage 3 (record join): :mod:`repro.join.stage3` — BRJ, OPRJ.
Section 5 (insufficient memory): :mod:`repro.join.blocks`.

End-to-end drivers live in :mod:`repro.join.driver`.
"""

from __future__ import annotations

from repro.join.checkpoint import CheckpointMismatchError, JoinCheckpoint
from repro.join.config import JoinConfig
from repro.join.records import (
    RecordSchema,
    join_value,
    make_line,
    parse_fields,
    rid_of,
)
from repro.join.driver import (
    JoinReport,
    set_similarity_self_join,
    set_similarity_rs_join,
    ssjoin_self,
    ssjoin_rs,
)

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
