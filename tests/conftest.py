"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.core.naive import naive_rs_join, naive_self_join
from repro.core.prefixes import Projection
from repro.core.tokenizers import WordTokenizer
from repro.join.driver import ssjoin_self
from repro.join.records import RecordSchema, join_value, make_line, rid_of
from repro.join.stage1 import stage1_jobs
from repro.join.stage2 import stage2_self_job
from repro.join.stage2_rs import stage2_rs_job
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.pipeline import run_pipeline

#: single-field schema used by most small-record tests
SCHEMA_1 = RecordSchema((1,))

#: marks a test that needs the persistent engine's ``fork`` pool
fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
_TOKENIZER = WordTokenizer()


def small_config(num_nodes: int = 4, **overrides) -> ClusterConfig:
    """A cluster config without startup costs and at unit scales, so
    simulated seconds are the measured ones."""
    defaults = dict(
        num_nodes=num_nodes,
        job_startup_s=0.0,
        task_startup_s=0.0,
        cpu_scale=1.0,
        data_scale=1.0,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def make_cluster(num_nodes: int = 4, **config_overrides) -> SimulatedCluster:
    """A small, fast test cluster with tiny DFS blocks (more tasks)."""
    config = small_config(num_nodes, **config_overrides)
    return SimulatedCluster(config, InMemoryDFS(num_nodes=num_nodes, block_bytes=512))


def random_records(
    rng: random.Random,
    count: int,
    vocab_size: int = 30,
    max_words: int = 10,
    dup_rate: float = 0.4,
    rid_base: int = 0,
) -> list[str]:
    """Random single-attribute records with injected near-duplicates so
    joins have non-trivial answers."""
    vocab = [f"w{i}" for i in range(vocab_size)]
    records: list[str] = []
    for rid in range(rid_base, rid_base + count):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, max_words))]
        if records and rng.random() < dup_rate:
            source = join_value(rng.choice(records), SCHEMA_1).split()
            if source and rng.random() < 0.5:
                source[rng.randrange(len(source))] = rng.choice(vocab)
            words = source or words
        records.append(make_line(rid, [" ".join(words), "payload"]))
    return records


def oracle_projections(records: list[str], schema: RecordSchema = SCHEMA_1) -> list[Projection]:
    """Rank-free projections for the naive oracle (any total order works:
    we sort token strings lexicographically)."""
    return [
        Projection(
            rid_of(line),
            tuple(sorted(set(_TOKENIZER.tokenize(join_value(line, schema))))),
        )
        for line in records
    ]


def run_stage2(records, config, num_reducers=4, **cluster_kwargs):
    """Stages 1 + 2 of a self-join on ``make_cluster(**cluster_kwargs)``:
    the Stage-2 output *list* (one entry per emitted RID pair, in DFS
    order) and the Stage-2 job stats."""
    cluster = make_cluster(**cluster_kwargs)
    cluster.dfs.write("records", records)
    run_pipeline(cluster, stage1_jobs(config, ["records"], "tokens", num_reducers))
    stats = cluster.run_job(
        stage2_self_job(config, "records", "tokens", "ridpairs", num_reducers)
    )
    return cluster.dfs.read_all("ridpairs"), stats


def run_stage2_rs(r_records, s_records, config, num_reducers=4, **cluster_kwargs):
    """Stages 1 + 2 of an R-S join, as :func:`run_stage2`."""
    cluster = make_cluster(**cluster_kwargs)
    cluster.dfs.write("r", r_records)
    cluster.dfs.write("s", s_records)
    run_pipeline(cluster, stage1_jobs(config, ["r"], "tokens", num_reducers))
    stats = cluster.run_job(
        stage2_rs_job(config, "r", "s", "tokens", "ridpairs", num_reducers)
    )
    return cluster.dfs.read_all("ridpairs"), stats


def stage2_squeeze(records, config, fraction=0.5) -> str:
    """A ``--faults`` plan capping every first Stage-2 reduce attempt at
    *fraction* of the peak a clean self-join of *records* under *config*
    meters there.  Sized from a measurement, so the cap follows the
    kernel's footprint; a literal goes on "squeezing" above the peak
    once the kernel holds less, and the ladder silently never engages.
    (A task's peak is its largest group's, whatever the cluster shape.)"""
    cluster = SimulatedCluster()
    cluster.dfs.write("records", records)
    return squeeze_below(ssjoin_self(cluster, "records", config), fraction)


def squeeze_below(report, fraction=0.5) -> str:
    """The :func:`stage2_squeeze` plan sized from the clean *report*."""
    peak = max(
        task.peak_memory_bytes
        for phase in report.stage2.phases for task in phase.reduce_tasks
    )
    return f"squeeze:stage2-*:reduce:*:0:{fraction * peak / 2**20:.6f}"


def oracle_self_pairs(records, config):
    return naive_self_join(oracle_projections(records), config.sim, config.threshold)


def oracle_rs_pairs(r_records, s_records, config):
    return naive_rs_join(
        oracle_projections(r_records),
        oracle_projections(s_records),
        config.sim,
        config.threshold,
    )


def assert_pk_funnel_closes(counters: dict) -> None:
    """Every PK candidate (an in-window entry of an owned posting list)
    is pruned by exactly one of the bitmap, positional and suffix
    filters, is another route's pair (``foreign``), or reaches the merge
    (``verified``) — by the job counters alone, so on any engine."""
    assert counters.get("stage2.verified", 0) > 0
    assert counters["stage2.candidate_pairs"] == (
        counters.get("stage2.pruned_foreign", 0)
        + counters.get("stage2.pruned_bitmap", 0)
        + counters.get("stage2.pruned_positional", 0)
        + counters.get("stage2.pruned_suffix", 0)
        + counters["stage2.verified"]
    )


def pair_keys(pairs) -> list[tuple[int, int]]:
    """Strip similarity values, keeping canonical RID pairs — as a
    *list*: every stage emits each pair once, so a repeated pair must
    fail the comparison with the oracle, not vanish in a set."""
    return sorted((min(a, b), max(a, b)) for a, b, _s in pairs)


@pytest.fixture(autouse=True)
def _isolated_runs_dir(tmp_path, monkeypatch):
    """Run manifests are on by default in the CLI; point the registry
    at a per-test directory so tests never pollute ``.repro-runs``."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "repro-runs"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_cluster() -> SimulatedCluster:
    return make_cluster()


@pytest.fixture
def make_engine(monkeypatch):
    """``make_engine(kind="persistent", config=None, dfs=None, **kwargs)``
    builds either engine of a differential test: ``"sequential"`` is a
    :class:`SimulatedCluster`, any other kind a two-worker
    ``PersistentParallelCluster`` (closed at teardown).  The config
    defaults to :func:`small_config`, the DFS to 512-byte blocks.

    The executor's pooling thresholds are set to 1, so every phase runs
    on the pool, however few tasks it has and however many cores the
    host exposes.
    """
    from repro.mapreduce import executor

    monkeypatch.setattr(executor, "MIN_TASKS_FOR_POOL", 1)
    monkeypatch.setattr(executor, "MIN_CORES_FOR_POOL", 1)
    pooled = []

    def make(kind="persistent", config=None, dfs=None, **kwargs):
        config = config or small_config()
        if dfs is None:
            dfs = InMemoryDFS(num_nodes=config.num_nodes, block_bytes=512)
        if kind == "sequential":
            return SimulatedCluster(config, dfs, **kwargs)
        cluster = executor.PersistentParallelCluster(config, dfs, workers=2, **kwargs)
        pooled.append(cluster)
        return cluster

    yield make
    for cluster in pooled:
        cluster.close()
