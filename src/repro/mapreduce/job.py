"""Job specification and task context.

A :class:`MapReduceJob` is a declarative description of one MapReduce
phase, mirroring the knobs the paper relies on:

* ``mapper(record, ctx)`` emits ``(key, value)`` pairs via
  :meth:`Context.emit`;
* ``combiner(key, values, ctx)`` optionally pre-aggregates per map
  task (BTO/OPTO token counting);
* ``group_key(key)`` selects the *part of the key* that both routes
  and groups: map output is hash-partitioned on it — the paper's
  custom partitioner that routes on the token group but not on the
  length or relation tag (Sections 3.2.2 and 4) — and, after each
  partition is sorted on the whole key (secondary sort through a
  composite key), consecutive pairs with equal group keys form one
  ``reducer(key, values, ctx)`` call, with values delivered lazily in
  key order (the length-sorted streams PPJoin+ needs);
* ``inputs`` may name several DFS files; ``ctx.input_file`` tells a
  mapper which one the current record came from (the R-S relation
  tagging trick of Section 4);
* ``broadcast`` names DFS files loaded into every map task before any
  input is consumed (Hadoop's distributed cache; OPRJ's RID-pair
  list).  Broadcast payload size is charged against task memory.
  :meth:`Context.view` derives a read-only structure from a broadcast
  file once per process (the token order, OPRJ's by-RID index) instead
  of once per task.

Setup/teardown hooks correspond to Hadoop's configure/close:
``map_setup(ctx)``, ``map_teardown(ctx)``, ``reduce_setup(ctx)``,
``reduce_teardown(ctx)``.  OPTO's reducer sorts its accumulated token
counts in ``reduce_teardown``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.mapreduce.counters import Counters
from repro.mapreduce.types import InsufficientMemoryError


def _identity(key: Any) -> Any:
    return key


class Broadcast(dict):
    """One map phase's distributed cache as one process loaded it: file
    name -> records, plus the views :meth:`Context.view` derived from
    them.  The views live and die with this payload — one per
    ``run_job``, which each worker of the job's pool inherits by fork
    and extends with the views its own tasks build — so no two jobs,
    and no two joins, ever share one."""

    def __init__(self, files: dict[str, list] | None = None) -> None:
        super().__init__(files or {})
        #: ``(file name, builder) -> (view, measured build seconds)``
        self.views: dict[tuple[str, Callable], tuple[Any, float]] = {}


class Context:
    """Per-task context handed to mappers, combiners and reducers.

    Provides emission, counters, broadcast data access and simulated
    memory metering.  One instance lives for one task.
    """

    def __init__(
        self,
        counters: Counters,
        memory_limit_bytes: int | None = None,
        broadcast: dict[str, list] | None = None,
    ) -> None:
        self.counters = counters
        self.memory_limit_bytes = memory_limit_bytes
        self.broadcast = (
            broadcast if isinstance(broadcast, Broadcast) else Broadcast(broadcast)
        )
        self.input_file: str | None = None
        self.current_key: Any = None
        self.task_id: int = -1
        self._emitted: list[tuple[Any, Any]] = []
        self._written: list[Any] = []
        #: simulated task memory: what each holder holds now, their sum
        #: and the largest sum so far
        self._held: dict[str, int] = {}
        self.held_bytes = 0
        self.peak_memory_bytes = 0
        #: the views this task used, by ``(file name, builder)``
        self._views: dict[tuple[str, Callable], Any] = {}
        #: build seconds of every view this task used / of those it built
        self.view_s = 0.0
        self.view_built_s = 0.0

    # -- broadcast views ----------------------------------------------------

    def view(self, name: str, build: Callable[[list], Any]) -> Any:
        """``build(records)`` of broadcast file *name*, built on first use
        in this process and memoised next to the loaded payload, keyed
        by file *and* builder.  Every later task of the phase — a retry
        included — reuses it; like Hadoop's distributed cache, which is
        localised once per node, not once per task.  The view must be
        read-only.  Its measured build seconds are billed like the
        broadcast read itself (see
        :func:`repro.mapreduce.cluster.execute_map_task`); its memory is
        the caller's to hold."""
        key = (name, build)
        found = self._views.get(key)
        if found is None:
            found = self._views[key] = self._load_view(key)
        return found

    def _load_view(self, key: tuple[str, Callable]) -> Any:
        entry = self.broadcast.views.get(key)
        if entry is None:
            started = time.perf_counter()
            view = key[1](self.broadcast[key[0]])
            entry = self.broadcast.views[key] = (view, time.perf_counter() - started)
            self.view_built_s += entry[1]
        self.view_s += entry[1]
        return entry[0]

    # -- emission ---------------------------------------------------------

    def emit(self, key: Any, value: Any) -> None:
        """Emit an intermediate ``(key, value)`` pair (map/combine side)."""
        self._emitted.append((key, value))

    def write(self, record: Any) -> None:
        """Write a final output record (reduce side)."""
        self._written.append(record)

    # -- observability ------------------------------------------------------

    def observe(self, name: str, value: int) -> None:
        """Record one histogram observation (e.g. a group size).

        Buffered by :meth:`Counters.observe` and encoded, when the
        task's counters are next read, as plain counters under
        ``hist.<name>`` (log2 buckets, count, sum — see
        :mod:`repro.obs.metrics`), so observations merge back to the
        driver through the existing counter path and never affect task
        output.
        """
        self.counters.observe(name, value)

    # -- memory metering ----------------------------------------------------

    def hold(self, what: str, num_bytes: int) -> None:
        """Set the simulated task memory holder *what* holds now to
        *num_bytes* (0: it holds nothing).

        The task's level is the sum over its holders.  A sum over the
        per-task budget raises :class:`InsufficientMemoryError` from
        this call, naming *what*; :attr:`peak_memory_bytes` is the
        largest sum.
        """
        total = self.held_bytes + num_bytes - self._held.get(what, 0)
        self._held[what] = num_bytes
        self.held_bytes = total
        if total > self.peak_memory_bytes:
            self.peak_memory_bytes = total
            limit = self.memory_limit_bytes
            if limit is not None and total > limit:
                raise InsufficientMemoryError(what, total, limit)


Mapper = Callable[[Any, Context], None]
Reducer = Callable[[Any, Iterator[Any], Context], None]
Combiner = Callable[[Any, list, Context], None]
Hook = Callable[[Context], None]


@dataclass
class MapReduceJob:
    """Declarative description of one MapReduce phase."""

    name: str
    inputs: Sequence[str]
    output: str
    mapper: Mapper
    reducer: Reducer
    num_reducers: int = 1
    combiner: Combiner | None = None
    group_key: Callable[[Any], Any] = _identity
    broadcast: Sequence[str] = field(default_factory=tuple)
    map_setup: Hook | None = None
    map_teardown: Hook | None = None
    reduce_setup: Hook | None = None
    reduce_teardown: Hook | None = None

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ValueError(
                f"job {self.name!r}: num_reducers must be >= 1, got {self.num_reducers}"
            )
        if not self.inputs:
            raise ValueError(f"job {self.name!r}: at least one input required")
