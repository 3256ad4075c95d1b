"""A faithful MapReduce runtime with a simulated shared-nothing cluster.

This subpackage replaces the paper's Hadoop 0.20 testbed.  It keeps
Hadoop's *semantics* — map, combine, hash partition, sort, grouping
comparator, multi-input tagging, distributed cache (broadcast), task
setup/teardown, counters — and models its *costs*: tasks are scheduled
onto ``nodes × slots``, per-phase makespans combine measured CPU work
with calibrated startup/shuffle/broadcast overheads, and per-task
memory is metered against a budget.

See DESIGN.md §2 for why this substitution preserves the paper's
speedup/scaleup behaviour.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

from repro.mapreduce.types import (
    ExecutorPhaseStats,
    InsufficientMemoryError,
    JobStats,
    PhaseStats,
    approx_bytes,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    TaskError,
)
from repro.mapreduce.hashing import stable_hash
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.job import Context, MapReduceJob
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.pipeline import run_pipeline

#: the pool engine drags in ``multiprocessing`` and the on-disk DFS
#: serves checkpoints and ``--dfs-dir``: a plain sequential join skips both
_LAZY = {
    "LocalDiskDFS": "repro.mapreduce.diskdfs",
    "PersistentParallelCluster": "repro.mapreduce.executor",
}


def __getattr__(name: str) -> Any:  # PEP 562: import on first use
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), name)

__all__ = [
    "ClusterConfig",
    "Context",
    "Counters",
    "ExecutorPhaseStats",
    "FaultPlan",
    "FaultSpec",
    "InMemoryDFS",
    "InsufficientMemoryError",
    "JobStats",
    "LocalDiskDFS",
    "MapReduceJob",
    "PersistentParallelCluster",
    "PhaseStats",
    "RetryPolicy",
    "SimulatedCluster",
    "TaskError",
    "approx_bytes",
    "run_pipeline",
    "stable_hash",
]
