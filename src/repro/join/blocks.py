"""Section 5 — handling insufficient memory.

When a Stage-2 reducer's candidate list cannot fit in memory even at
the finest routing granularity, the paper sub-partitions each reducer
group into *blocks* small enough to fit, and computes the group's
cross product block-by-block:

* **map-based block processing** — the mapper replicates records so
  that the reducer sees, for each step ``s``: the *load* copy of block
  ``s`` followed by *stream* copies of blocks ``s+1 …``.  The reducer
  keeps only the loaded block in memory.  Replication factor for a
  record in block ``b`` is ``b + 1``.
* **reduce-based block processing** — the mapper sends each record
  once; the reducer loads block 0, streams the rest while spilling
  them to local disk, then re-reads spilled blocks for the remaining
  steps.  No extra network traffic, extra local disk I/O instead.

A record's block is ``stable_hash(rid) % num_blocks`` — the mapper
must know the block count up front, which is why it is part of
:class:`BlockPolicy` (in Hadoop it would be a job configuration
parameter).

For R-S joins only the R partition is sub-partitioned; the S stream is
replicated against every R block (map-based) or spilled once and
re-read per block (reduce-based), exactly as in Section 5 "Handling
R-S Joins".

Counters: ``stage2.spill_bytes_written`` / ``stage2.spill_bytes_read``
account the simulated local-disk traffic of the reduce-based strategy,
:func:`repro.core.prefixes.projection_bytes` per spilled projection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapreduce.hashing import stable_hash

MAP_BASED = "map"
REDUCE_BASED = "reduce"

#: roles in the map-based interleaved stream (sort order matters:
#: the load copy of block ``s`` precedes the streamed copies in step ``s``).
ROLE_LOAD = 0
ROLE_STREAM = 1

SPILL_WRITTEN = "stage2.spill_bytes_written"
SPILL_READ = "stage2.spill_bytes_read"


@dataclass(frozen=True)
class BlockPolicy:
    """Sub-partitioning policy for oversized Stage-2 (BK) groups."""

    strategy: str = REDUCE_BASED
    num_blocks: int = 2

    def __post_init__(self) -> None:
        if self.strategy not in (MAP_BASED, REDUCE_BASED):
            raise ValueError(
                f"strategy must be '{MAP_BASED}' or '{REDUCE_BASED}', got {self.strategy!r}"
            )
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")

    def block_of(self, rid: int) -> int:
        """Deterministic block assignment of a record."""
        return stable_hash(rid) % self.num_blocks

    def replication_schedule(self, block: int) -> list[tuple[int, int]]:
        """Map-based copies for a record in *block*:
        ``(step, role)`` pairs, in emission order.

        The record is loaded in its own step and streamed in every
        earlier step (Figure 7(a)).
        """
        copies = [(step, ROLE_STREAM) for step in range(block)]
        copies.append((block, ROLE_LOAD))
        return copies

    def rs_stream_schedule(self) -> list[tuple[int, int]]:
        """Map-based copies for an S record in an R-S join: streamed in
        every step (against every R block)."""
        return [(step, ROLE_STREAM) for step in range(self.num_blocks)]
