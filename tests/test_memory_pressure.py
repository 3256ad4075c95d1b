"""Memory-pressure survival: the squeeze fault, the runtime degradation
ladder, and the differential-matrix cells (``tests/matrix.py``) proving
a squeezed join recovers with the clean join's output on both engines —
including through a kill + ``--resume`` mid-degradation — and reports
the plan that ran.
"""

from __future__ import annotations

import json
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
from repro.join.memory import apply_degradations, apply_step, next_escalation
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.faults import (
    FaultPlan,
    FaultSpec,
    TaskError,
    squeezed_limit,
)
from repro.mapreduce.types import InsufficientMemoryError
from repro.obs.runs import build_run_manifest

from tests.conftest import (
    fork_only,
    oracle_projections,
    pair_keys,
    random_records,
    run_stage2,
    run_stage2_rs,
    stage2_squeeze,
)
from tests.matrix import BASE, cell, inputs, reference, run_join, squeeze


#: the R-S reducers hold only the R partition, so their peak is lower;
#: a tighter cap than a self-join's is needed to force degradation
SQUEEZE_RS = "squeeze:stage2-*:reduce:*:0:0.002"

PK = BASE.with_options(kernel="pk")


def squeeze_self(kernel: str) -> str:
    """Half the Stage-2 reduce peak the clean skewed self-join meters
    under *kernel* (PK indexes only what its group owns, so its peak is
    well below BK's): the ladder must engage."""
    return squeeze("skewed", BASE.with_options(kernel=kernel))


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
    def test_parse_compact_roundtrip(self):
        plan = FaultPlan.parse("squeeze:stage2-*:reduce:*:0:0.005")
        (spec,) = plan.specs
        assert spec.kind == "squeeze"
        assert (spec.job, spec.phase, spec.task, spec.attempt) == (
            "stage2-*", "reduce", "*", 0,
        )
        assert spec.cap_mb == 0.005
        assert FaultPlan.parse(spec.compact()).specs == (spec,)

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
# the degradation ladder
# ---------------------------------------------------------------------------


class TestLadder:
    def test_escalation_order(self):
        config = BASE.with_options(kernel="pk", routing="grouped", num_groups=8)
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
        config = PK.with_options(routing="grouped")
        assert next_escalation(config, "stage2") == "kernel:bk"
        assert next_escalation(PK, "stage2") == "kernel:bk"

    def test_grouped_and_individual_degrade_alike_end_to_end(self):
        # just under the PK peak: BK then holds ~4x that per group, and a
        # much lower cap leaves no block count a dblp record pair fits in
        plan = FaultPlan.parse(
            stage2_squeeze(inputs("dblp")[0], JoinConfig(threshold=0.8), fraction=0.9)
        )
        individual, grouped = (
            run_join(
                SimulatedCluster(fault_plan=plan), "dblp",
                JoinConfig(threshold=0.8, routing=routing),
            )
            for routing in ("individual", "grouped")
        )
        steps = individual.report.memory_steps
        assert steps and steps[0] == "kernel:bk"
        assert grouped.report.memory_steps == steps
        assert sorted(grouped.pairs) == sorted(individual.pairs) and individual.pairs

    def test_length_class_plan_takes_the_blocks_rung(self):
        """A BK plan with ``length_class_width`` over budget engages
        blocks, the stronger Section-5 strategy (the step clears the
        class width: ``test_blocks_step_clears_length_classes``)."""
        config = BASE.with_options(kernel="bk", length_class_width=4)
        assert next_escalation(config, "stage2") == "blocks:reduce:2"

    def test_apply_step_rejects_unknown(self):
        config = BASE
        for bad in ("routing:grouped", "kernel:gpu", "blocks:weird:3",
                    "blocks:reduce:x", "batch:32", "batch:none", "frobnicate"):
            with pytest.raises(ValueError):
                apply_step(config, bad)

    def test_routing_step_drops_the_group_count(self):
        config = BASE.with_options(routing="grouped", num_groups=4)
        config = apply_step(config, "routing:individual")
        assert config.routing == "individual" and config.num_groups is None

    def test_blocks_step_clears_length_classes(self):
        config = BASE.with_options(kernel="bk", length_class_width=4)
        config = apply_step(config, "blocks:map:4")
        assert config.blocks == BlockPolicy(strategy=MAP_BASED, num_blocks=4)
        assert config.length_class_width is None

    def test_apply_degradations_folds_in_order(self):
        config = apply_degradations(
            PK, ["kernel:bk", "blocks:reduce:2", "blocks:reduce:4"]
        )
        assert config.kernel == "bk"
        assert config.blocks.num_blocks == 4


# ---------------------------------------------------------------------------
# differential chaos matrix: squeeze -> degrade -> identical output
# ---------------------------------------------------------------------------


class TestSqueezeRecoverySimulated:
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_self_join_recovers_bit_identical(self, make_engine, kernel):
        config = BASE.with_options(kernel=kernel)
        run = cell(make_engine, "skewed", config, faults=squeeze_self(kernel))
        assert run.counters["memory.replans"] == len(run.report.memory_steps) >= 1
        assert "memory.escalations" not in run.counters
        assert_names_the_plan_that_ran(config, run.report)

    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_rs_join_recovers_bit_identical(self, make_engine, kernel):
        config = BASE.with_options(kernel=kernel)
        run = cell(make_engine, "skewed-rs", config, faults=SQUEEZE_RS)
        assert run.counters["memory.replans"] >= 1

    def test_no_auto_degrade_surfaces_raw_error(self, make_engine):
        cluster = make_engine("sequential", fault_plan=FaultPlan.parse(squeeze_self("pk")))
        with pytest.raises(InsufficientMemoryError) as excinfo:
            run_join(cluster, "skewed", PK.with_options(auto_degrade=False))
        err = excinfo.value
        assert err.job and err.job.startswith("stage2-")
        assert err.phase == "reduce"
        assert err.needed_bytes > err.limit_bytes

    def test_replan_budget_bounds_the_ladder(self, make_engine, monkeypatch):
        from repro.join import driver

        # one replan is never enough for this squeeze: the first rung
        # (pk -> bk) still holds the whole hot group in memory
        monkeypatch.setattr(driver, "MAX_REPLANS", 1)
        cluster = make_engine("sequential", fault_plan=FaultPlan.parse(squeeze_self("pk")))
        with pytest.raises(InsufficientMemoryError):
            run_join(cluster, "skewed", PK)

    def test_stage3_rung_is_outside_the_replan_budget(self, make_engine, monkeypatch):
        """A Stage 2 that spent every replan still lets an OPRJ that does
        not fit fall back to BRJ: Stage 3's one rung fires at most once,
        so it is not counted against ``MAX_REPLANS``, and the join
        finishes as it did when BRJ was the default plan."""
        from repro.join import driver

        stage2_steps = cell(
            make_engine, "skewed", PK, faults=squeeze_self("pk")
        ).report.memory_steps
        monkeypatch.setattr(driver, "MAX_REPLANS", len(stage2_steps))
        run = cell(
            make_engine, "skewed", PK,
            faults=squeeze_self("pk") + ";squeeze:oprj:map:*:0:0.00001",
        )
        assert run.report.memory_steps == stage2_steps + ["stage3:brj"]
        assert run.counters["memory.replans"] == driver.MAX_REPLANS + 1
        assert_names_the_plan_that_ran(PK, run.report)

    def test_memory_summary_line(self, make_engine):
        run = cell(make_engine, "skewed", PK, faults=squeeze_self("pk"))
        summary = run.report.format_summary()
        assert "memory:" in summary and "replan" in summary

    def test_kill_and_resume_replays_degraded_plan(self, make_engine, tmp_path):
        # squeeze stage 2 into degradation, then kill the run in stage 3
        fatal = make_engine(
            "sequential",
            fault_plan=FaultPlan.parse(squeeze_self("pk") + ";raise:oprj:map:*:*"),
        )
        with pytest.raises(TaskError):
            run_join(fatal, "skewed", PK, checkpoint=JoinCheckpoint(tmp_path))

        run = run_join(
            make_engine("sequential"), "skewed", PK,
            checkpoint=JoinCheckpoint(tmp_path, resume=True),
        )
        assert run.pairs == reference("skewed", PK).pairs
        report = run.report
        assert report.counters()["resume.stages_skipped"] == 2
        # the degraded plan was replayed from the manifest, not
        # rediscovered: the replayed steps count as replans again
        assert report.memory_steps[0] == "kernel:bk"
        assert report.counters()["memory.replans"] == len(report.memory_steps)
        assert_names_the_plan_that_ran(PK, report)

    def test_resume_refuses_retired_batch_step(self, make_engine, tmp_path):
        """A manifest written before the batch rungs were retired is
        refused by name instead of failing deep inside the ladder."""
        run_join(make_engine("sequential"), "skewed", PK, checkpoint=JoinCheckpoint(tmp_path))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["memory_steps"] = ["kernel:bk", "batch:32"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointMismatchError, match="batch:32"):
            run_join(
                make_engine("sequential"), "skewed", PK,
                checkpoint=JoinCheckpoint(tmp_path, resume=True),
            )


@fork_only
class TestSqueezeRecoveryPersistent:
    def test_self_join_recovers_bit_identical(self, make_engine):
        run = cell(
            make_engine, "skewed", PK, engine="persistent", faults=squeeze_self("pk")
        )
        assert run.counters["memory.replans"] >= 1
        assert run.report.memory_steps[0] == "kernel:bk"
        assert_names_the_plan_that_ran(PK, run.report)

    def test_rs_join_recovers_bit_identical(self, make_engine):
        run = cell(make_engine, "skewed-rs", PK, engine="persistent", faults=SQUEEZE_RS)
        assert run.counters["memory.replans"] >= 1


@fork_only
@pytest.mark.parametrize("squeezed", [False, True], ids=["plain", "squeeze"])
@pytest.mark.parametrize("engines", ["sim-to-pool", "pool-to-sim"])
def test_checkpoint_resumes_on_the_other_engine(tmp_path, make_engine, engines, squeezed):
    """A checkpoint one engine wrote, killed after Stage 2, resumes on
    the other to the clean run's output; memory steps the writer
    recorded are replayed from the manifest (the reader has no fault
    plan to rediscover them with)."""
    writer, reader = (
        ("sequential", "persistent") if engines == "sim-to-pool"
        else ("persistent", "sequential")
    )
    faults = "raise:oprj:map:*:*"
    if squeezed:
        faults = squeeze_self("pk") + ";" + faults
    with pytest.raises(TaskError):
        run_join(
            make_engine(writer, fault_plan=FaultPlan.parse(faults)), "skewed", PK,
            checkpoint=JoinCheckpoint(tmp_path),
        )
    recorded = json.loads((tmp_path / "manifest.json").read_text()).get("memory_steps", [])
    assert bool(recorded) == squeezed

    run = run_join(
        make_engine(reader), "skewed", PK,
        checkpoint=JoinCheckpoint(tmp_path, resume=True),
    )
    assert run.pairs == reference("skewed", PK).pairs
    report = run.report
    assert report.counters()["resume.stages_skipped"] == 2
    assert report.memory_steps == recorded
    assert report.counters().get("memory.replans", 0) == len(recorded)
    assert_names_the_plan_that_ran(PK, report)


# ---------------------------------------------------------------------------
# map-based vs reduce-based block equivalence (hypothesis property)
# ---------------------------------------------------------------------------


def _assert_strategies_agree(run, num_blocks, oracle):
    """*run(config)* under no blocks, map-based and reduce-based blocks
    emits the *oracle* pairs; only reduce-based blocks spill."""
    (plain, _), (mapped, map_stats), (reduced, red_stats) = (
        run(BASE.with_options(kernel="bk", blocks=blocks))
        for blocks in (
            None,
            BlockPolicy(strategy=MAP_BASED, num_blocks=num_blocks),
            BlockPolicy(strategy=REDUCE_BASED, num_blocks=num_blocks),
        )
    )
    assert pair_keys(plain) == pair_keys(mapped) == pair_keys(reduced)
    assert pair_keys(plain) == pair_keys(oracle)
    # map-based never touches local disk; reduce-based reads every
    # spilled byte back at least once — exactly once when only one
    # block spills (num_blocks == 2), more when later blocks are
    # re-read once per earlier block's pass
    assert map_stats.counters.get(SPILL_WRITTEN, 0) == 0
    written = red_stats.counters.get(SPILL_WRITTEN, 0)
    read = red_stats.counters.get(SPILL_READ, 0)
    assert read == written if num_blocks == 2 else read >= written


class TestBlockEquivalenceProperty:
    @settings(max_examples=12, deadline=None)
    @given(num_blocks=st.integers(2, 6), seed=st.integers(0, 2**16))
    def test_self_join_strategies_agree(self, num_blocks, seed):
        records = random_records(random.Random(seed), 40)
        _assert_strategies_agree(
            lambda config: run_stage2(records, config), num_blocks,
            naive_self_join(oracle_projections(records), BASE.sim, 0.5),
        )

    @settings(max_examples=12, deadline=None)
    @given(num_blocks=st.integers(2, 6), seed=st.integers(0, 2**16))
    def test_rs_join_strategies_agree(self, num_blocks, seed):
        rng = random.Random(seed)
        r = random_records(rng, 30)
        s = random_records(rng, 25)
        _assert_strategies_agree(
            lambda config: run_stage2_rs(r, s, config), num_blocks,
            naive_rs_join(oracle_projections(r), oracle_projections(s), BASE.sim, 0.5),
        )
