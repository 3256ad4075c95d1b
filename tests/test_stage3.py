"""Tests for Stage 3 (record join): BRJ and OPRJ, self and R-S."""

import pytest

from repro.join.config import JoinConfig
from repro.join.records import make_line, rid_of
from repro.join.stage3 import RECORD_PAIRS_OUTPUT, stage3_jobs
from repro.mapreduce.faults import TaskError
from repro.mapreduce.pipeline import run_pipeline

from tests.conftest import make_cluster

RECORDS = [
    make_line(1, ["alpha beta", "p1"]),
    make_line(2, ["alpha beta", "p2"]),
    make_line(3, ["gamma", "p3"]),
    make_line(21, ["delta", "p21"]),
]
PAIRS = [(1, 2, 0.9), (1, 21, 0.85)]


def run_stage3(records, pairs, stage3, is_rs=False, s_records=None, num_reducers=3):
    cluster = make_cluster()
    record_files = {"records": 0}
    cluster.dfs.write("records", records)
    if is_rs:
        cluster.dfs.write("s_records", s_records)
        record_files = {"records": 0, "s_records": 1}
    cluster.dfs.write("ridpairs", pairs)
    config = JoinConfig(stage3=stage3)
    stats = run_pipeline(
        cluster,
        stage3_jobs(config, record_files, "ridpairs", "joined", num_reducers, is_rs),
    )
    return cluster.dfs.read_all("joined"), stats


@pytest.mark.parametrize("stage3", ["brj", "oprj"])
class TestSelfRecordJoin:
    def test_pairs_filled_with_records(self, stage3):
        joined, _ = run_stage3(RECORDS, PAIRS, stage3)
        got = sorted((rid_of(a), rid_of(b), s) for a, b, s in joined)
        assert got == [(1, 2, 0.9), (1, 21, 0.85)]

    def test_record_content_correct(self, stage3):
        joined, _ = run_stage3(RECORDS, PAIRS, stage3)
        by_key = {(rid_of(a), rid_of(b)): (a, b) for a, b, _ in joined}
        line1, line2 = by_key[(1, 2)]
        assert "p1" in line1 and "p2" in line2

    def test_duplicated_rid_pair_list_refused(self, stage3):
        """Stage 2 emits each pair from its one owner; a pair list that
        repeats a pair is a bug upstream and must be loud, not absorbed."""
        with pytest.raises(TaskError, match=r"ValueError.*\(1, 2, 0\.9\).*4 halves"):
            run_stage3(RECORDS, PAIRS + [PAIRS[0]], stage3)

    def test_empty_pairs(self, stage3):
        joined, _ = run_stage3(RECORDS, [], stage3)
        assert joined == []

    def test_output_counter(self, stage3):
        _, stats = run_stage3(RECORDS, PAIRS, stage3)
        assert stats.counters()[RECORD_PAIRS_OUTPUT] == 2

    def test_similarity_carried_through(self, stage3):
        joined, _ = run_stage3(RECORDS, [(1, 2, 0.8125)], stage3)
        assert joined[0][2] == 0.8125


@pytest.mark.parametrize("stage3", ["brj", "oprj"])
class TestRSRecordJoin:
    def test_overlapping_rids_resolved_by_relation(self, stage3):
        r = [make_line(1, ["r title", "from-r"])]
        s = [make_line(1, ["s title", "from-s"])]
        joined, _ = run_stage3(r, [(1, 1, 0.95)], stage3, is_rs=True, s_records=s)
        assert len(joined) == 1
        r_line, s_line, similarity = joined[0]
        assert "from-r" in r_line and "from-s" in s_line
        assert similarity == 0.95

    def test_r_record_always_first(self, stage3):
        r = [make_line(5, ["x", "R"])]
        s = [make_line(2, ["x", "S"])]
        joined, _ = run_stage3(r, [(5, 2, 1.0)], stage3, is_rs=True, s_records=s)
        assert "R" in joined[0][0] and "S" in joined[0][1]


class TestErrorPaths:
    def test_brj_dangling_rid(self):
        # kernel bugs now surface as TaskError (job/phase/task context
        # attached) once the retry budget is spent
        with pytest.raises(TaskError, match="ValueError.*no record"):
            run_stage3(RECORDS, [(1, 999, 0.9)], "brj")

    def test_jobs_dispatch(self):
        config = JoinConfig(stage3="brj")
        assert len(stage3_jobs(config, {"f": 0}, "p", "o", 2, False)) == 2
        config = JoinConfig(stage3="oprj")
        jobs = stage3_jobs(config, {"f": 0}, "p", "o", 2, False)
        assert len(jobs) == 1
        assert list(jobs[0].broadcast) == ["p"]


class TestBRJSkewVisibility:
    def test_hot_rid_lands_in_one_reduce_task(self):
        """A RID appearing in many pairs is processed by one reducer —
        the skew the paper blames for BRJ's limited speedup."""
        records = [make_line(i, [f"t{i}", "x"]) for i in range(30)]
        pairs = [(0, i, 0.9) for i in range(1, 30)]  # rid 0 is hot
        cluster = make_cluster()
        cluster.dfs.write("records", records)
        cluster.dfs.write("ridpairs", pairs)
        config = JoinConfig(stage3="brj")
        stats = run_pipeline(
            cluster,
            stage3_jobs(config, {"records": 0}, "ridpairs", "joined", 8, False),
        )
        fill = stats.phases[0]
        outputs = sorted(t.output_records for t in fill.reduce_tasks)
        # one task must carry all 29 halves of the hot rid
        assert outputs[-1] >= 29
