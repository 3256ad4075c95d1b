"""Memory-pressure survival: the squeeze fault, the runtime degradation
ladder, and the differential chaos matrix proving a squeezed join
recovers with bit-identical output on both engines — including through
a kill + ``--resume`` mid-degradation — and reports the plan that ran.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.naive import naive_rs_join, naive_self_join
from repro.join.blocks import (
    MAP_BASED,
    REDUCE_BASED,
    SPILL_READ,
    SPILL_WRITTEN,
    BlockPolicy,
)
from repro.join.checkpoint import CheckpointMismatchError, JoinCheckpoint
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_rs, ssjoin_self
from repro.join.memory import apply_degradations, apply_step, next_escalation
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.counters import Counters
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.faults import (
    FaultPlan,
    FaultSpec,
    TaskError,
    squeezed_limit,
)
from repro.mapreduce.job import Context
from repro.mapreduce.types import InsufficientMemoryError
from repro.obs.runs import build_run_manifest

from tests.conftest import (
    SCHEMA_1,
    oracle_projections,
    pair_keys,
    random_records,
    stage2_squeeze,
)

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

CONFIG = dict(threshold=0.5, schema=SCHEMA_1)

#: squeeze every first stage-2 reduce attempt down to 5 KB — below what
#: a BK group of the workloads below reserves
SQUEEZE = "squeeze:stage2-*:reduce:*:0:0.005"
#: the R-S reducers hold only the R partition, so their peak is lower;
#: a tighter cap is needed to force degradation
SQUEEZE_RS = "squeeze:stage2-*:reduce:*:0:0.002"


def skewed_records(n=200):
    """A workload with one hot token shared by every record, so some
    Stage-2 group is guaranteed to outgrow a squeezed budget."""
    return [
        f"{i}\tword{i % 7} word{i % 11} word{i % 13} word{i % 3} common"
        for i in range(n)
    ]


@functools.lru_cache(maxsize=None)
def squeeze_self(kernel: str) -> str:
    """Half the Stage-2 reduce peak the clean skewed self-join meters
    under *kernel* (PK indexes only what its group owns, so its peak is
    well below BK's and below :data:`SQUEEZE`): the ladder must engage."""
    return stage2_squeeze(skewed_records(), JoinConfig(**CONFIG, kernel=kernel))


def make_sim(fault_plan=None, **cfg) -> SimulatedCluster:
    defaults = dict(
        num_nodes=4, job_startup_s=0, task_startup_s=0,
        cpu_scale=1.0, data_scale=1.0,
    )
    defaults.update(cfg)
    return SimulatedCluster(
        ClusterConfig(**defaults),
        InMemoryDFS(num_nodes=4, block_bytes=512),
        fault_plan=fault_plan,
    )


def run_self(cluster, records, config=None, **kwargs):
    cluster.dfs.write("records", records)
    report = ssjoin_self(cluster, "records", config or JoinConfig(**CONFIG), **kwargs)
    return sorted(cluster.dfs.read_all(report.output_file)), report


def run_rs(cluster, r, s, config=None, **kwargs):
    cluster.dfs.write("r", r)
    cluster.dfs.write("s", s)
    report = ssjoin_rs(cluster, "r", "s", config or JoinConfig(**CONFIG), **kwargs)
    return sorted(cluster.dfs.read_all(report.output_file)), report


def assert_names_the_plan_that_ran(config, report):
    """The report, its summary header and the run manifest name the plan
    the join finished with — *config* with every degradation step
    applied — and the manifest lists the steps."""
    ran = apply_degradations(config, report.memory_steps)
    doc = build_run_manifest(
        kind="selfjoin", workload="records", config=config, report=report
    )
    assert report.combo == doc["combo"] == ran.combo_name
    assert report.format_summary().startswith(f"{ran.combo_name}: ")
    assert doc["kernel"] == ran.kernel
    assert doc.get("memory_steps", []) == report.memory_steps


# ---------------------------------------------------------------------------
# the squeeze fault kind
# ---------------------------------------------------------------------------


class TestSqueezeFault:
    def test_parse_compact_and_json_roundtrip(self):
        plan = FaultPlan.parse(SQUEEZE)
        (spec,) = plan.specs
        assert spec.kind == "squeeze"
        assert (spec.job, spec.phase, spec.task, spec.attempt) == (
            "stage2-*", "reduce", "*", 0,
        )
        assert spec.cap_mb == 0.005
        assert FaultPlan.parse(spec.compact()).specs == (spec,)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="squeeze", cap_mb=0.0)
        with pytest.raises(ValueError):
            FaultPlan.parse("squeeze:*:reduce:*:0:-1")

    def test_squeezed_limit(self):
        squeeze = FaultSpec(kind="squeeze", cap_mb=0.01)
        cap = int(0.01 * 1024 * 1024)
        # lowers an existing budget, installs one where none was set
        assert squeezed_limit(squeeze, 50 * 1024 * 1024) == cap
        assert squeezed_limit(squeeze, None) == cap
        # never *raises* the budget
        assert squeezed_limit(squeeze, cap // 2) == cap // 2
        # non-squeeze specs and no spec leave the limit alone
        assert squeezed_limit(FaultSpec(kind="raise"), 123) == 123
        assert squeezed_limit(None, 123) == 123
        assert squeezed_limit(None, None) is None


# ---------------------------------------------------------------------------
# accounting-underflow clamp (satellite: release_memory)
# ---------------------------------------------------------------------------


class TestReleaseUnderflow:
    def test_over_release_counts_under_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        ctx = Context(Counters())
        ctx.reserve_memory(100)
        ctx.release_memory(150)
        assert ctx.counters.get("sanitize.violations") == 1
        assert ctx.counters.get("sanitize.memory_over_release") == 1
        # the meter clamped at zero: a fresh reserve starts from scratch
        ctx.reserve_memory(40)
        ctx.release_memory(40)
        assert ctx.counters.get("sanitize.memory_over_release") == 1

    def test_underflow_is_silent_without_sanitizer(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        ctx = Context(Counters())
        ctx.reserve_memory(10)
        ctx.release_memory(99)
        assert ctx.counters.get("sanitize.memory_over_release") == 0


# ---------------------------------------------------------------------------
# the degradation ladder
# ---------------------------------------------------------------------------


class TestLadder:
    def test_escalation_order(self):
        config = JoinConfig(
            **CONFIG, kernel="pk", routing="grouped", num_groups=8,
        )
        steps = []
        while (step := next_escalation(config, "stage2")) is not None:
            steps.append(step)
            config = apply_step(config, step)
            assert len(steps) < 32, "ladder must terminate"
        assert steps[:4] == [
            "routing:individual",
            "kernel:bk",
            "blocks:reduce:2",
            "blocks:reduce:4",
        ]
        assert steps[-1] == "blocks:reduce:4096"
        assert next_escalation(config, "stage2") is None

    def test_one_group_per_token_starts_at_the_kernel_rung(self):
        """Grouped routing with ``num_groups=None`` already is per-token
        routing: a ``routing:individual`` rung would re-run the identical
        plan, so the ladder skips it."""
        config = JoinConfig(**CONFIG, kernel="pk", routing="grouped")
        assert next_escalation(config, "stage2") == "kernel:bk"
        individual = JoinConfig(**CONFIG, kernel="pk")
        assert next_escalation(individual, "stage2") == "kernel:bk"

    def test_grouped_and_individual_degrade_alike_end_to_end(self):
        from repro.data.synthetic import generate_dblp

        records = generate_dblp(2000, 7)
        # just under the PK peak: BK then holds ~4x that per group, and a
        # much lower cap leaves no block count a dblp record pair fits in
        plan = FaultPlan.parse(
            stage2_squeeze(records, JoinConfig(threshold=0.8), fraction=0.9)
        )
        runs = {}
        for routing in ("individual", "grouped"):
            cluster = SimulatedCluster(fault_plan=plan)
            runs[routing] = run_self(
                cluster, records, JoinConfig(threshold=0.8, routing=routing)
            )
        pairs, report = runs["individual"]
        grouped_pairs, grouped_report = runs["grouped"]
        assert report.memory_steps and report.memory_steps[0] == "kernel:bk"
        assert grouped_report.memory_steps == report.memory_steps
        assert grouped_pairs == pairs and pairs

    def test_length_class_plan_takes_the_blocks_rung(self):
        """A BK plan with ``length_class_width`` over budget engages
        blocks, the stronger Section-5 strategy (the step clears the
        class width: ``test_blocks_step_clears_length_classes``)."""
        config = JoinConfig(**CONFIG, kernel="bk", length_class_width=4)
        assert next_escalation(config, "stage2") == "blocks:reduce:2"

    def test_apply_step_rejects_unknown(self):
        config = JoinConfig(**CONFIG)
        for bad in ("routing:grouped", "kernel:gpu", "blocks:weird:3",
                    "blocks:reduce:x", "batch:32", "batch:none", "frobnicate"):
            with pytest.raises(ValueError):
                apply_step(config, bad)

    def test_routing_step_drops_the_group_count(self):
        config = JoinConfig(**CONFIG, routing="grouped", num_groups=4)
        config = apply_step(config, "routing:individual")
        assert config.routing == "individual" and config.num_groups is None

    def test_blocks_step_clears_length_classes(self):
        config = JoinConfig(**CONFIG, kernel="bk", length_class_width=4)
        config = apply_step(config, "blocks:map:4")
        assert config.blocks == BlockPolicy(strategy=MAP_BASED, num_blocks=4)
        assert config.length_class_width is None

    def test_apply_degradations_folds_in_order(self):
        config = JoinConfig(**CONFIG, kernel="pk")
        config = apply_degradations(
            config, ["kernel:bk", "blocks:reduce:2", "blocks:reduce:4"]
        )
        assert config.kernel == "bk"
        assert config.blocks.num_blocks == 4


# ---------------------------------------------------------------------------
# differential chaos matrix: squeeze -> degrade -> identical output
# ---------------------------------------------------------------------------


class TestSqueezeRecoverySimulated:
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_self_join_recovers_bit_identical(self, kernel):
        records = skewed_records()
        config = JoinConfig(**CONFIG, kernel=kernel)
        clean_pairs, _ = run_self(make_sim(), records, config)
        pairs, report = run_self(
            make_sim(fault_plan=FaultPlan.parse(squeeze_self(kernel))), records, config
        )
        assert report.counters()["memory.replans"] == len(report.memory_steps) >= 1
        assert "memory.escalations" not in report.counters()
        assert pairs == clean_pairs
        assert_names_the_plan_that_ran(config, report)

    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_rs_join_recovers_bit_identical(self, kernel):
        r = skewed_records(160)
        s = skewed_records(120)
        config = JoinConfig(**CONFIG, kernel=kernel)
        clean_pairs, _ = run_rs(make_sim(), r, s, config)
        pairs, report = run_rs(
            make_sim(fault_plan=FaultPlan.parse(SQUEEZE_RS)), r, s, config
        )
        assert report.counters()["memory.replans"] >= 1
        assert pairs == clean_pairs

    def test_no_auto_degrade_surfaces_raw_error(self):
        records = skewed_records()
        config = JoinConfig(**CONFIG, kernel="pk", auto_degrade=False)
        with pytest.raises(InsufficientMemoryError) as excinfo:
            run_self(
                make_sim(fault_plan=FaultPlan.parse(squeeze_self("pk"))), records, config
            )
        err = excinfo.value
        assert err.job and err.job.startswith("stage2-")
        assert err.phase == "reduce"
        assert err.needed_bytes > err.limit_bytes

    def test_replan_budget_bounds_the_ladder(self, monkeypatch):
        from repro.join import driver

        records = skewed_records()
        # one replan is never enough for this squeeze: the first rung
        # (pk -> bk) still holds the whole hot group in memory
        monkeypatch.setattr(driver, "MAX_REPLANS", 1)
        config = JoinConfig(**CONFIG, kernel="pk")
        with pytest.raises(InsufficientMemoryError):
            run_self(
                make_sim(fault_plan=FaultPlan.parse(squeeze_self("pk"))), records, config
            )

    def test_stage3_rung_is_outside_the_replan_budget(self, monkeypatch):
        """A Stage 2 that spent every replan still lets an OPRJ that does
        not fit fall back to BRJ: Stage 3's one rung fires at most once,
        so it is not counted against ``MAX_REPLANS``, and the join
        finishes as it did when BRJ was the default plan."""
        from repro.join import driver

        records = skewed_records()
        config = JoinConfig(**CONFIG, kernel="pk")
        clean_pairs, _ = run_self(make_sim(), records, config)
        _, stage2_only = run_self(
            make_sim(fault_plan=FaultPlan.parse(squeeze_self("pk"))), records, config
        )
        monkeypatch.setattr(driver, "MAX_REPLANS", len(stage2_only.memory_steps))
        plan = FaultPlan.parse(squeeze_self("pk") + ";squeeze:oprj:map:*:0:0.00001")
        pairs, report = run_self(make_sim(fault_plan=plan), records, config)
        assert report.memory_steps == stage2_only.memory_steps + ["stage3:brj"]
        assert report.counters()["memory.replans"] == driver.MAX_REPLANS + 1
        assert pairs == clean_pairs
        assert_names_the_plan_that_ran(config, report)

    def test_memory_summary_line(self):
        records = skewed_records()
        config = JoinConfig(**CONFIG, kernel="pk")
        _, report = run_self(
            make_sim(fault_plan=FaultPlan.parse(squeeze_self("pk"))), records, config
        )
        summary = report.format_summary()
        assert "memory:" in summary and "replan" in summary

    def test_kill_and_resume_replays_degraded_plan(self, tmp_path):
        records = skewed_records()
        config = JoinConfig(**CONFIG, kernel="pk")
        clean_pairs, _ = run_self(make_sim(), records, config)

        # squeeze stage 2 into degradation, then kill the run in stage 3
        fatal = make_sim(
            fault_plan=FaultPlan.parse(squeeze_self("pk") + ";raise:oprj:map:*:*")
        )
        with pytest.raises(TaskError):
            run_self(fatal, records, config, checkpoint=JoinCheckpoint(tmp_path))

        resumed = make_sim()
        pairs, report = run_self(
            resumed, records, config,
            checkpoint=JoinCheckpoint(tmp_path, resume=True),
        )
        assert pairs == clean_pairs
        assert report.counters()["resume.stages_skipped"] == 2
        # the degraded plan was replayed from the manifest, not
        # rediscovered: the replayed steps count as replans again
        assert report.memory_steps[0] == "kernel:bk"
        assert report.counters()["memory.replans"] == len(report.memory_steps)
        assert_names_the_plan_that_ran(config, report)

    def test_resume_refuses_retired_batch_step(self, tmp_path):
        """A manifest written before the batch rungs were retired is
        refused by name instead of failing deep inside the ladder."""
        records = skewed_records()
        config = JoinConfig(**CONFIG, kernel="pk")
        run_self(make_sim(), records, config, checkpoint=JoinCheckpoint(tmp_path))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["memory_steps"] = ["kernel:bk", "batch:32"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointMismatchError, match="batch:32"):
            run_self(
                make_sim(), records, config,
                checkpoint=JoinCheckpoint(tmp_path, resume=True),
            )


@fork_only
class TestSqueezeRecoveryPersistent:
    def test_self_join_recovers_bit_identical(self, make_engine):
        records = skewed_records()
        config = JoinConfig(**CONFIG, kernel="pk")
        clean_pairs, _ = run_self(make_engine(), records, config)
        pairs, report = run_self(
            make_engine(fault_plan=FaultPlan.parse(squeeze_self("pk"))), records, config
        )
        assert report.counters()["memory.replans"] >= 1
        assert pairs == clean_pairs
        assert report.memory_steps[0] == "kernel:bk"
        assert_names_the_plan_that_ran(config, report)

    def test_rs_join_recovers_bit_identical(self, make_engine):
        r = skewed_records(160)
        s = skewed_records(120)
        config = JoinConfig(**CONFIG, kernel="pk")
        clean_pairs, _ = run_rs(make_engine(), r, s, config)
        pairs, report = run_rs(
            make_engine(fault_plan=FaultPlan.parse(SQUEEZE_RS)), r, s, config
        )
        assert report.counters()["memory.replans"] >= 1
        assert pairs == clean_pairs


@fork_only
@pytest.mark.parametrize("squeezed", [False, True], ids=["plain", "squeeze"])
@pytest.mark.parametrize("engines", ["sim-to-pool", "pool-to-sim"])
def test_checkpoint_resumes_on_the_other_engine(tmp_path, make_engine, engines, squeezed):
    """A checkpoint one engine wrote, killed after Stage 2, resumes on
    the other to the clean run's output; memory steps the writer
    recorded are replayed from the manifest (the reader has no fault
    plan to rediscover them with)."""
    make_writer, make_reader = (
        (make_sim, make_engine) if engines == "sim-to-pool" else (make_engine, make_sim)
    )
    records = skewed_records()
    config = JoinConfig(**CONFIG, kernel="pk")
    clean_pairs, _ = run_self(make_sim(), records, config)

    faults = "raise:oprj:map:*:*"
    if squeezed:
        faults = squeeze_self("pk") + ";" + faults
    writer = make_writer(fault_plan=FaultPlan.parse(faults))
    try:
        with pytest.raises(TaskError):
            run_self(writer, records, config, checkpoint=JoinCheckpoint(tmp_path))
    finally:
        writer.close()
    recorded = json.loads((tmp_path / "manifest.json").read_text()).get("memory_steps", [])
    assert bool(recorded) == squeezed

    reader = make_reader()
    try:
        pairs, report = run_self(
            reader, records, config,
            checkpoint=JoinCheckpoint(tmp_path, resume=True),
        )
    finally:
        reader.close()
    assert pairs == clean_pairs
    assert report.counters()["resume.stages_skipped"] == 2
    assert report.memory_steps == recorded
    assert report.counters().get("memory.replans", 0) == len(recorded)
    assert_names_the_plan_that_ran(config, report)


# ---------------------------------------------------------------------------
# map-based vs reduce-based block equivalence (hypothesis property)
# ---------------------------------------------------------------------------


def _stage2_self(records, config):
    from repro.join.stage1 import stage1_jobs
    from repro.join.stage2 import stage2_self_job
    from repro.mapreduce.pipeline import run_pipeline

    cluster = make_sim()
    cluster.dfs.write("records", records)
    run_pipeline(cluster, stage1_jobs(config, ["records"], "tokens", 4))
    stats = cluster.run_job(stage2_self_job(config, "records", "tokens", "pairs", 4))
    return cluster.dfs.read_all("pairs"), stats


def _stage2_rs(r, s, config):
    from repro.join.stage1 import stage1_jobs
    from repro.join.stage2_rs import stage2_rs_job
    from repro.mapreduce.pipeline import run_pipeline

    cluster = make_sim()
    cluster.dfs.write("r", r)
    cluster.dfs.write("s", s)
    run_pipeline(cluster, stage1_jobs(config, ["r"], "tokens", 4))
    stats = cluster.run_job(stage2_rs_job(config, "r", "s", "tokens", "pairs", 4))
    return cluster.dfs.read_all("pairs"), stats


def _block_config(strategy, num_blocks):
    return JoinConfig(
        **CONFIG, kernel="bk",
        blocks=None if strategy is None else BlockPolicy(
            strategy=strategy, num_blocks=num_blocks
        ),
    )


class TestBlockEquivalenceProperty:
    @settings(max_examples=12, deadline=None)
    @given(num_blocks=st.integers(2, 6), seed=st.integers(0, 2**16))
    def test_self_join_strategies_agree(self, num_blocks, seed):
        records = random_records(random.Random(seed), 40)
        plain, _ = _stage2_self(records, _block_config(None, 0))
        mapped, map_stats = _stage2_self(
            records, _block_config(MAP_BASED, num_blocks)
        )
        reduced, red_stats = _stage2_self(
            records, _block_config(REDUCE_BASED, num_blocks)
        )
        assert pair_keys(mapped) == pair_keys(plain)
        assert pair_keys(reduced) == pair_keys(plain)
        oracle = naive_self_join(
            oracle_projections(records), _block_config(None, 0).sim, 0.5
        )
        assert pair_keys(plain) == pair_keys(oracle)
        # map-based never touches local disk; reduce-based reads every
        # spilled byte back at least once — exactly once when only one
        # block spills (num_blocks == 2), more when later blocks are
        # re-read once per earlier block's pass
        assert map_stats.counters.get(SPILL_WRITTEN, 0) == 0
        written = red_stats.counters.get(SPILL_WRITTEN, 0)
        read = red_stats.counters.get(SPILL_READ, 0)
        if num_blocks == 2:
            assert read == written
        else:
            assert read >= written

    @settings(max_examples=12, deadline=None)
    @given(num_blocks=st.integers(2, 6), seed=st.integers(0, 2**16))
    def test_rs_join_strategies_agree(self, num_blocks, seed):
        rng = random.Random(seed)
        r = random_records(rng, 30)
        s = random_records(rng, 25)
        plain, _ = _stage2_rs(r, s, _block_config(None, 0))
        mapped, map_stats = _stage2_rs(r, s, _block_config(MAP_BASED, num_blocks))
        reduced, red_stats = _stage2_rs(
            r, s, _block_config(REDUCE_BASED, num_blocks)
        )
        assert pair_keys(mapped) == pair_keys(plain)
        assert pair_keys(reduced) == pair_keys(plain)
        oracle = naive_rs_join(
            oracle_projections(r), oracle_projections(s),
            _block_config(None, 0).sim, 0.5,
        )
        assert pair_keys(plain) == pair_keys(oracle)
        assert map_stats.counters.get(SPILL_WRITTEN, 0) == 0
        written = red_stats.counters.get(SPILL_WRITTEN, 0)
        read = red_stats.counters.get(SPILL_READ, 0)
        if num_blocks == 2:
            assert read == written
        else:
            assert read >= written
