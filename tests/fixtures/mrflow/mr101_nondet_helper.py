"""MR101: nondeterminism reaches a mapper through a helper call.

The mapper's own body holds no source (no MR003 there) — the
unseeded RNG call sits one hop away in ``_jittered_weight``.
"""

import random


def _jittered_weight(length: int) -> float:
    return length + random.random()


def token_mapper(record, ctx):
    rid, tokens = record
    for position, token in enumerate(tokens):
        weight = _jittered_weight(len(tokens))
        ctx.emit((token, len(tokens)), (rid, position, weight))
