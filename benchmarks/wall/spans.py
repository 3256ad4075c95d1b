"""Span recording for the traced run, kept in the benchmark's own code.

A span is ``{id, parent, run, name, start, end}`` with times in
seconds on ``time.perf_counter``.  Spans stay in memory and are written
out by the caller when the benchmark ends.  A disabled recorder records
nothing, which is how the untraced comparison run is made.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class SpanRecorder:
    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, cursor)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = duration(span) - covered
    return result
