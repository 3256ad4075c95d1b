"""Tests for the simulated memory model across the pipeline: the
paper's memory-control claims, made checkable."""

import multiprocessing

import pytest

from repro.data.increase import increase_dataset
from repro.data.synthetic import generate_dblp
from repro.join.checkpoint import JoinCheckpoint
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_rs, ssjoin_self
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.executor import PersistentParallelCluster
from repro.mapreduce.faults import FaultPlan, TaskError
from repro.mapreduce.types import InsufficientMemoryError, approx_bytes

from tests.conftest import SCHEMA_1, random_records

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def cluster_with(records, memory_mb=None, num_nodes=4, engine="sequential", faults=None):
    config = ClusterConfig(
        num_nodes=num_nodes, job_startup_s=0, task_startup_s=0,
        cpu_scale=1.0, data_scale=1.0, memory_per_task_mb=memory_mb,
    )
    dfs = InMemoryDFS(num_nodes=num_nodes, block_bytes=512)
    plan = FaultPlan.parse(faults) if faults else None
    if engine == "sequential":
        cluster = SimulatedCluster(config, dfs, fault_plan=plan)
    else:
        cluster = PersistentParallelCluster(
            config, dfs, workers=2, min_tasks_for_pool=1, assume_cores=2,
            fault_plan=plan,
        )
    cluster.dfs.write("records", records)
    return cluster


def oprj_only_budget(records, config):
    """``(budget_mb, peak_oprj)``: a per-task budget halfway between the
    largest task of a BRJ join of *records* (every stage) and OPRJ's
    map-task peak, and that peak."""
    brj_report = ssjoin_self(
        cluster_with(records), "records", config.with_options(stage3="brj")
    )
    oprj_report = ssjoin_self(
        cluster_with(records), "records", config.with_options(stage3="oprj")
    )
    peak_brj = max(
        t.peak_memory_bytes
        for stats in brj_report.stages.values()
        for p in stats.phases
        for t in p.map_tasks + p.reduce_tasks
    )
    peak_oprj = max(
        t.peak_memory_bytes
        for p in oprj_report.stage3.phases
        for t in p.map_tasks
    )
    assert peak_oprj > peak_brj
    return (peak_brj + (peak_oprj - peak_brj) / 2) / 1024 / 1024, peak_oprj


def stage2_reduce_peak(report) -> int:
    return max(
        (t.peak_memory_bytes for p in report.stage2.phases for t in p.reduce_tasks),
        default=0,
    )


class TestKernelMemory:
    def test_pk_peak_below_bk_peak(self, rng):
        """The PK kernel's length-based eviction bounds its index to a
        fraction of BK's full candidate list (Section 3.2.2)."""
        records = random_records(rng, 150, dup_rate=0.5)
        bk = ssjoin_self(
            cluster_with(records), "records",
            JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel="bk"),
        )
        pk = ssjoin_self(
            cluster_with(records), "records",
            JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel="pk"),
        )
        assert stage2_reduce_peak(pk) <= stage2_reduce_peak(bk)

    def test_memory_released_between_groups(self, rng):
        """A reducer's reservations must not accumulate across groups."""
        records = random_records(rng, 120)
        report = ssjoin_self(
            cluster_with(records), "records",
            JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel="bk", num_reducers=1),
        )
        # with one reducer, peak == largest single group, far below total
        kernel_phase = report.stage2.phases[-1]
        total_input = sum(t.input_records for t in kernel_phase.reduce_tasks)
        assert total_input > 0
        # the peak corresponds to a fraction of all shuffled projections
        peak = stage2_reduce_peak(report)
        shuffled = kernel_phase.shuffle_bytes
        assert peak < shuffled

    def test_rs_kernel_stores_only_r(self, rng):
        """R-S BK keeps R projections only; S streams through
        (Section 4 Stage 2)."""
        r = random_records(rng, 40)
        s_small = random_records(rng, 10, rid_base=1000)
        s_large = random_records(rng, 300, rid_base=1000)

        def peak_with(s_records):
            config = ClusterConfig(num_nodes=2, job_startup_s=0, task_startup_s=0)
            cluster = SimulatedCluster(config, InMemoryDFS(num_nodes=2, block_bytes=512))
            cluster.dfs.write("r", r)
            cluster.dfs.write("s", s_records)
            report = ssjoin_rs(
                cluster, "r", "s",
                JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel="bk"),
            )
            return stage2_reduce_peak(report)

        # 30x more S data must not inflate reducer memory by much
        assert peak_with(s_large) <= 2 * peak_with(s_small) + 2048


class TestBudgetEnforcement:
    def test_oprj_fails_before_brj(self, rng):
        """Under a budget sized between BRJ's and OPRJ's needs, only
        OPRJ fails — Figure 14's selective OOM (no ladder, as on the
        paper's Hadoop)."""
        records = random_records(rng, 150, dup_rate=0.6)
        config = JoinConfig(threshold=0.4, schema=SCHEMA_1, auto_degrade=False)
        budget_mb, peak_oprj = oprj_only_budget(records, config)

        # BRJ completes...
        ssjoin_self(
            cluster_with(records, memory_mb=budget_mb), "records",
            config.with_options(stage3="brj"),
        )
        # ...OPRJ does not
        with pytest.raises(InsufficientMemoryError) as exc_info:
            ssjoin_self(
                cluster_with(records, memory_mb=budget_mb), "records",
                config.with_options(stage3="oprj"),
            )
        # A map task charges its whole by-RID index in one call, on top
        # of the list the runtime charged, so the error names the task's
        # full peak — not the running total at the pair that crossed the
        # budget, as it did while the index was charged 48 B per pair
        assert exc_info.value.needed_bytes == peak_oprj
        assert exc_info.value.job == "oprj"

    @pytest.mark.parametrize(
        "engine",
        ["sequential", pytest.param("persistent", marks=pytest.mark.skipif(
            not HAVE_FORK, reason="the persistent engine needs fork"))],
    )
    def test_oprj_degrades_to_brj(self, rng, engine, tmp_path):
        """The same budget with the ladder on (the default): the OPRJ
        memory fault re-runs Stage 3 as BRJ, one ``stage3:brj`` step,
        same output; a run killed after the step resumes by replaying
        it instead of re-trying OPRJ."""
        records = random_records(rng, 150, dup_rate=0.6)
        config = JoinConfig(threshold=0.4, schema=SCHEMA_1)
        budget_mb, _ = oprj_only_budget(records, config)

        def join(**kwargs):
            cluster = cluster_with(
                records, memory_mb=kwargs.pop("memory_mb", budget_mb),
                engine=engine, faults=kwargs.pop("faults", None),
            )
            try:
                report = ssjoin_self(cluster, "records", config, **kwargs)
                return sorted(cluster.dfs.read_all(report.output_file)), report
            finally:
                cluster.close()

        clean_pairs, clean = join(memory_mb=None)
        assert clean.combo == "BTO-PK-OPRJ" and clean.memory_steps == []
        pairs, report = join()
        assert pairs == clean_pairs
        assert report.combo == "BTO-PK-BRJ"
        assert report.memory_steps == ["stage3:brj"]
        assert report.counters()["memory.replans"] == 1
        assert [p.job_name for p in report.stage3.phases] == ["brj-fill", "brj-join"]

        with pytest.raises(TaskError):
            join(faults="raise:brj-*:map:*:*", checkpoint=JoinCheckpoint(tmp_path))
        pairs, resumed = join(checkpoint=JoinCheckpoint(tmp_path, resume=True))
        assert pairs == clean_pairs
        assert resumed.memory_steps == ["stage3:brj"]
        assert resumed.counters()["resume.stages_skipped"] == 2
        assert [p.job_name for p in resumed.stage3.phases] == ["brj-fill", "brj-join"]

    def test_oprj_peak_doubles_with_the_pair_list_brj_holds_one_record(self):
        """The mechanism behind Figures 12/14, byte-exact.  Doubling the
        dataset doubles the RID-pair list; every OPRJ map task holds
        that list (charged by the runtime's broadcast accounting) plus
        its by-RID index (charged by ``oprj_jobs``), so its peak
        doubles, while the largest BRJ task still holds one record.
        The figure benches size their OOM budget from this peak, so a
        change to the pair list or to its charge must show here."""

        def measure(records, stage3):
            report = ssjoin_self(
                cluster_with(records), "records", JoinConfig(stage3=stage3)
            )
            list_bytes = sum(
                t.output_bytes for t in report.stage2.phases[-1].reduce_tasks
            )
            peak = max(
                t.peak_memory_bytes
                for p in report.stage3.phases
                for t in p.map_tasks + p.reduce_tasks
            )
            return report.counters()["stage2.pairs_output"], list_bytes, peak

        base = generate_dblp(150, seed=7)
        grown = increase_dataset(base, 2)
        pairs, list_bytes, oprj_peak = measure(base, "oprj")
        grown_pairs, grown_list_bytes, grown_oprj_peak = measure(grown, "oprj")
        assert grown_pairs == 2 * pairs > 0
        assert grown_list_bytes == 2 * list_bytes
        # the index is charged on top of the list, and doubles with it
        assert oprj_peak > list_bytes
        assert grown_oprj_peak == 2 * oprj_peak
        for records in (base, grown):
            _, _, brj_peak = measure(records, "brj")
            assert brj_peak == max(approx_bytes(line) for line in records)

    def test_error_names_the_culprit(self, rng):
        records = random_records(rng, 100, dup_rate=0.6)
        with pytest.raises(InsufficientMemoryError) as exc_info:
            ssjoin_self(
                cluster_with(records, memory_mb=0.0001), "records",
                JoinConfig(threshold=0.5, schema=SCHEMA_1),
            )
        assert exc_info.value.needed_bytes > exc_info.value.limit_bytes
