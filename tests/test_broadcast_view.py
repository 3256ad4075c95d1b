"""Tests for ``Context.view``: a read-only structure derived from a
broadcast file once per process and phase, not once per map task."""

import multiprocessing
import os
import time

import pytest

from repro.data.synthetic import generate_dblp
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_self
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.executor import PersistentParallelCluster
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.job import MapReduceJob

ENGINES = [
    "sequential",
    pytest.param("persistent", marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the persistent engine needs fork",
    )),
]


def make_engine(engine, fault_plan=None, **config):
    cluster_config = ClusterConfig(**config)
    dfs = InMemoryDFS(num_nodes=cluster_config.num_nodes, block_bytes=64)
    if engine == "sequential":
        return SimulatedCluster(cluster_config, dfs, fault_plan=fault_plan)
    return PersistentParallelCluster(
        cluster_config, dfs, workers=2, min_tasks_for_pool=1, assume_cores=2,
        fault_plan=fault_plan,
    )


def counting_builder(log_path, delay_s=0.0):
    """A builder that appends its process id to *log_path* per call."""

    def build(records):
        with open(log_path, "a") as log:
            log.write(f"{os.getpid()}\n")
        time.sleep(delay_s)
        return {record: len(record) for record in records}

    return build


def view_job(build, name="viewer"):
    """Every input record looks itself up in the view of ``side``."""

    def mapper(record, ctx):
        ctx.emit(record, ctx.view("side", build).get(record, -1))

    def reducer(key, values, ctx):
        ctx.write((key, *values))

    return MapReduceJob(
        name=name, inputs=["in"], output="out", mapper=mapper,
        reducer=reducer, num_reducers=2, broadcast=["side"],
    )


def fill(cluster, side, records):
    cluster.dfs.write("side", side)
    cluster.dfs.write("in", records)


def builds(log_path):
    return log_path.read_text().split() if log_path.exists() else []


RECORDS = [f"record-{i:03d}" for i in range(40)]


@pytest.mark.parametrize("engine", ENGINES)
def test_built_once_per_process(engine, tmp_path):
    log = tmp_path / "builds"
    cluster = make_engine(engine)
    try:
        fill(cluster, RECORDS[::2], RECORDS)
        stats = cluster.run_job(view_job(counting_builder(log)))
    finally:
        cluster.close()
    assert len(stats.map_tasks) > 2
    assert sorted(cluster.dfs.read_all("out")) == [
        (r, len(r) if i % 2 == 0 else -1) for i, r in enumerate(RECORDS)
    ]
    pids = builds(log)
    if engine == "sequential":
        assert pids == [str(os.getpid())]
    else:
        assert stats.map_executor.mode == "pool"
        # at most once per worker, never in the parent
        assert 1 <= len(pids) <= 2 and len(set(pids)) == len(pids)
        assert str(os.getpid()) not in pids


@pytest.mark.parametrize("engine", ENGINES)
def test_a_retried_task_reuses_the_view(engine, tmp_path):
    log = tmp_path / "builds"
    plan = FaultPlan.parse("raise:viewer:map:1:0")
    cluster = make_engine(engine, fault_plan=plan)
    try:
        fill(cluster, RECORDS, RECORDS)
        stats = cluster.run_job(view_job(counting_builder(log)))
    finally:
        cluster.close()
    assert stats.counters["task.retries"] == 1
    assert 1 <= len(builds(log)) <= (1 if engine == "sequential" else 2)


@pytest.mark.parametrize("engine", ENGINES)
def test_two_jobs_over_the_same_file_name_never_share_a_view(engine, tmp_path):
    """Same file name, same builder object, different contents: the view
    lives with one job's payload, so the second job sees its own file."""
    build = counting_builder(tmp_path / "builds")
    cluster = make_engine(engine)
    try:
        fill(cluster, ["a"], ["a", "bb"])
        cluster.run_job(view_job(build))
        first = sorted(cluster.dfs.read_all("out"))
        fill(cluster, ["bb"], ["a", "bb"])
        cluster.run_job(view_job(build))
        second = sorted(cluster.dfs.read_all("out"))
    finally:
        cluster.close()
    assert first == [("a", 1), ("bb", -1)]
    assert second == [("a", -1), ("bb", 2)]


@pytest.mark.parametrize("engine", ENGINES)
def test_two_joins_in_one_process_never_share_a_pair_index(engine):
    """Two OPRJ joins whose RID-pair lists differ but share a file name
    (same input name, same prefix) each equal a join on a fresh cluster."""
    corpora = [generate_dblp(300, seed=7), generate_dblp(300, seed=8)]
    expected = []
    for records in corpora:
        fresh = make_engine("sequential")
        fresh.dfs.write("records", records)
        report = ssjoin_self(fresh, "records", JoinConfig())
        expected.append(sorted(fresh.dfs.read_all(report.output_file)))
    assert expected[0] != expected[1]
    cluster = make_engine(engine)
    try:
        for records, pairs in zip(corpora, expected):
            cluster.dfs.write("records", records)
            report = ssjoin_self(cluster, "records", JoinConfig())
            assert report.combo == "BTO-PK-OPRJ"
            assert sorted(cluster.dfs.read_all(report.output_file)) == pairs
    finally:
        cluster.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_each_slots_first_task_bills_the_build(engine, tmp_path):
    """The view's build is billed like the broadcast read: to each task
    ``< map_slots`` whichever task built it, and to no later task."""
    delay_s = 0.2
    cluster = make_engine(engine, num_nodes=1, map_slots_per_node=2)
    try:
        fill(cluster, RECORDS, RECORDS)
        stats = cluster.run_job(
            view_job(counting_builder(tmp_path / "builds", delay_s))
        )
    finally:
        cluster.close()
    slots = cluster.config.map_slots
    tasks = sorted(stats.map_tasks, key=lambda t: t.task_id)
    assert len(tasks) > slots + 2
    for task in tasks:
        if task.task_id < slots:
            assert delay_s <= task.cpu_seconds < 2 * delay_s, task
        else:
            assert task.cpu_seconds < delay_s / 2, task
