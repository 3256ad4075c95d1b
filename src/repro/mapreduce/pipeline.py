"""Multi-job pipelines.

The paper's stages are one- or two-job pipelines (BTO = 2 jobs,
OPTO = 1, BRJ = 2, OPRJ = 1); :func:`run_pipeline` chains them through
the DFS and aggregates their stats.
"""

from __future__ import annotations

from typing import Iterable

from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import JobStats


def run_pipeline(
    cluster: SimulatedCluster, jobs: Iterable[MapReduceJob]
) -> JobStats:
    """Run *jobs* in order on *cluster*; each job reads what earlier
    jobs wrote to the DFS.  Returns the aggregated :class:`JobStats`."""
    return JobStats([cluster.run_job(job) for job in jobs])
