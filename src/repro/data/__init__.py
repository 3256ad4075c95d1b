"""Workload data: synthetic DBLP/CITESEERX corpora and the paper's
dataset-increase technique (Section 6)."""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: resolved on first use: a join reads records and never generates them
_LAZY = {
    **dict.fromkeys(
        ("CITESEERX_SPEC", "CorpusSpec", "DBLP_SPEC", "generate_citeseerx",
         "generate_corpus", "generate_dblp"),
        "repro.data.synthetic",
    ),
    "increase_dataset": "repro.data.increase",
    **dict.fromkeys(("read_records", "write_records"), "repro.data.loaders"),
}


def __getattr__(name: str) -> Any:  # PEP 562: import on first use
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), name)


__all__ = [
    "CITESEERX_SPEC",
    "CorpusSpec",
    "DBLP_SPEC",
    "generate_citeseerx",
    "generate_corpus",
    "generate_dblp",
    "increase_dataset",
    "read_records",
    "write_records",
]
