"""Hadoop-style job counters."""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from repro.obs.metrics import HIST_PREFIX, bucket_of

# Framework counter names (the user namespace is free-form).
MAP_INPUT_RECORDS = "framework.map_input_records"
MAP_OUTPUT_RECORDS = "framework.map_output_records"
MAP_OUTPUT_BYTES = "framework.map_output_bytes"
COMBINE_INPUT_RECORDS = "framework.combine_input_records"
COMBINE_OUTPUT_RECORDS = "framework.combine_output_records"
SHUFFLE_BYTES = "framework.shuffle_bytes"
REDUCE_INPUT_GROUPS = "framework.reduce_input_groups"
REDUCE_INPUT_RECORDS = "framework.reduce_input_records"
REDUCE_OUTPUT_RECORDS = "framework.reduce_output_records"


class Counters:
    """A merge-able multiset of named counters.

    Tasks increment their own instance; the runtime merges task
    counters into the job's :class:`~repro.mapreduce.types.PhaseStats`.
    Histogram observations (:meth:`observe`) are buffered raw and
    folded into their ``hist.*`` counters by the first read after them,
    so no reader sees a counter set that lacks them.
    """

    def __init__(self) -> None:
        self._counts: Counter[str] = Counter()
        self._observed: dict[str, list[int]] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    def observe(self, name: str, value: int) -> None:
        """Record one observation of histogram *name*: an append now,
        the ``hist.*`` counters at the next read."""
        try:
            self._observed[name].append(value)
        except KeyError:
            self._observed[name] = [value]

    def _folded(self) -> Counter[str]:
        """The counts, after giving every buffered observation the
        encoding of :func:`repro.obs.metrics.observe_into` — in ``2 +
        distinct buckets`` increments per histogram, not 3 per value."""
        for name, values in self._observed.items():
            prefix = f"{HIST_PREFIX}{name}."
            for bucket, count in Counter(map(bucket_of, values)).items():
                self.increment(f"{prefix}b{bucket}", count)
            self.increment(prefix + "n", len(values))
            self.increment(prefix + "sum", sum(values))
        self._observed.clear()
        return self._counts

    def get(self, name: str) -> int:
        return self._folded().get(name, 0)

    def merge(self, other: "Counters") -> None:
        self._counts.update(other._folded())

    def merge_dict(self, counts: dict[str, int]) -> None:
        """Merge a plain counter snapshot (e.g. from a worker process)."""
        self._counts.update(counts)

    def as_dict(self) -> dict[str, int]:
        """Snapshot with keys in sorted order, so merged snapshots,
        ``--stats`` output and JSON reports are byte-stable and
        diffable across runs."""
        return dict(sorted(self._folded().items()))

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self._folded().items()))

    def __repr__(self) -> str:
        return f"Counters({dict(self._folded())!r})"
