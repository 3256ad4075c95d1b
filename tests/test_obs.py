"""Tests for the observability layer (``repro.obs``).

Covers the histogram-over-counters encoding and its decoding, the
span tracer and its Chrome-trace-event export, the trace-report
analyzer, and — as differential-matrix cells (``tests/matrix.py``) —
the observe-only guarantee: a traced join produces bit-identical pairs
and counters to an untraced one, on both execution engines.
"""

import json
import multiprocessing
from itertools import groupby

import pytest
from hypothesis import given, strategies as st

from repro.join.config import JoinConfig
from repro.mapreduce import cluster as cluster_module
from repro.mapreduce.cluster import (
    ClusterConfig,
    SimulatedCluster,
    execute_map_task,
    execute_reduce_task,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.job import Context, MapReduceJob
from repro.mapreduce.types import ExecutorPhaseStats
from repro.obs.metrics import (
    HIST_PREFIX,
    bucket_bounds,
    bucket_of,
    hist_counter,
    histograms,
    observe_into,
)
from repro.obs.report import (
    _build_span_forest,
    _gini,
    _p99_over_median,
    digest_trace,
    format_routing_comparison,
    format_trace_report,
    load_trace,
    validate_trace,
)
from repro.obs.trace import NULL_SPAN, Tracer, trace_span

from tests.conftest import make_cluster, random_records
from tests.matrix import BASE, cell, run_join

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# histogram encoding / decoding
# ---------------------------------------------------------------------------


class TestHistogramEncoding:
    def test_bucket_of(self):
        assert bucket_of(0) == 0
        assert bucket_of(-5) == 0
        assert bucket_of(1) == 1
        assert bucket_of(2) == 2
        assert bucket_of(3) == 2
        assert bucket_of(4) == 3
        assert bucket_of(255) == 8
        assert bucket_of(256) == 9

    def test_bucket_bounds_roundtrip(self):
        for value in (0, 1, 2, 3, 7, 8, 1000, 2**30):
            low, high = bucket_bounds(bucket_of(value))
            assert low <= max(value, 0) < high

    def test_hist_counter_key(self):
        assert hist_counter("x", 5) == "hist.x.b3"
        assert hist_counter("a.b", 0) == "hist.a.b.b0"

    def test_observe_into_increments_three_keys(self):
        counters = Counters()
        observe_into(counters.increment, "groups", 5)
        observe_into(counters.increment, "groups", 6)
        observe_into(counters.increment, "groups", 0)
        assert counters.as_dict() == {
            "hist.groups.b0": 1,
            "hist.groups.b3": 2,
            "hist.groups.n": 3,
            "hist.groups.sum": 11,
        }

    def test_merge_counters_roundtrip(self):
        """Encoding through counters and decoding through
        :func:`histograms` gives back the observations' buckets, count
        and sum, on the unbuffered and the buffered path alike."""
        values = (0, 1, 1, 3, 9, 200)
        unbuffered, buffered = Counters(), Counters()
        for value in values:
            observe_into(unbuffered.increment, "v", value)
            buffered.observe("v", value)
        expected = {
            "buckets": {"0": 1, "1": 2, "2": 1, "4": 1, "8": 1},
            "count": 6,
            "sum": 214,
            "mean": 35.667,
            "p50": 1.0,
            "p99": 191.5,
        }
        for counters in (unbuffered, buffered):
            assert histograms(counters.as_dict())["v"].as_dict() == expected

    def test_histograms_skip_plain_and_malformed_counters(self):
        """Only well-formed ``hist.<name>.{n,sum,b<digits>}`` keys make a
        histogram; a stray key never conjures an empty one."""
        decoded = histograms(
            {
                "stage2.pairs": 7,
                HIST_PREFIX + "x.n": 1,
                HIST_PREFIX + "x.sum": 4,
                HIST_PREFIX + "x.b3": 1,
                HIST_PREFIX + "weird": 2,  # no name part
                HIST_PREFIX + "y.bogus": 3,  # unknown field
                HIST_PREFIX + "z.b": 1,  # bucket without digits
                HIST_PREFIX + "z.b²": 1,  # not a decimal digit
            }
        )
        assert list(decoded) == ["x"]
        assert (decoded["x"].buckets, decoded["x"].count, decoded["x"].total) == (
            {3: 1}, 1, 4,
        )

    def test_quantiles_and_mean(self):
        counters = Counters()
        for value in (1, 2, 4, 8):
            observe_into(counters.increment, "v", value)
        hist = histograms(counters.as_dict())["v"]
        assert hist.count == 4
        assert hist.total == 15
        assert hist.mean == pytest.approx(3.75)
        assert hist.p50 == pytest.approx(2.5)  # midpoint of bucket [2, 4)
        assert hist.max_bound == 16
        assert histograms({}) == {}

    def test_snapshot_is_sorted_and_deterministic(self):
        counters = Counters()
        for name, value in (("zeta", 900), ("alpha", 1), ("zeta", 3)):
            observe_into(counters.increment, name, value)
        shuffled = dict(reversed(list(counters.as_dict().items())))
        decoded = histograms(shuffled)
        assert list(decoded) == ["alpha", "zeta"]
        snap = {name: hist.as_dict() for name, hist in decoded.items()}
        assert list(snap["zeta"]["buckets"]) == ["2", "10"]
        again = {name: hist.as_dict() for name, hist in histograms(shuffled).items()}
        assert json.dumps(snap) == json.dumps(again)

    def test_counters_as_dict_sorted(self):
        counters = Counters()
        counters.increment("zz")
        counters.increment("aa")
        counters.increment("mm")
        assert list(counters.as_dict()) == ["aa", "mm", "zz"]


def _unbuffered(ops) -> Counters:
    """*ops* applied the unbuffered way: every observation is three
    ``observe_into`` increments at the moment it is made."""
    counters = Counters()
    for op, name, value in ops:
        if op == "observe":
            observe_into(counters.increment, name, value)
        elif op == "increment":
            counters.increment(name, value)
        elif op == "merge":
            other = Counters()
            observe_into(other.increment, name, value)
            counters.merge(other)
        elif op == "merge_dict":
            counters.merge_dict({name: value})
    return counters


_names = st.sampled_from(["a", "b.c", "stage2.record_routes"])
_values = st.integers(min_value=0, max_value=1 << 40)


class TestBufferedObserve:
    """``Counters.observe`` buffers; any read sees exactly what one
    ``observe_into`` per observation would have produced."""

    @given(st.lists(st.tuples(_names, _values), max_size=60))
    def test_one_read_equals_n_observe_into(self, observations):
        buffered = Counters()
        for name, value in observations:
            buffered.observe(name, value)
        reference = _unbuffered([("observe", n, v) for n, v in observations])
        assert json.dumps(buffered.as_dict()) == json.dumps(reference.as_dict())
        assert list(buffered.as_dict()) == sorted(buffered.as_dict())

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["observe", "increment", "merge", "merge_dict", "read"]
                ),
                _names,
                _values,
            ),
            max_size=40,
        ),
        st.sampled_from(["get", "as_dict", "iter", "repr", "merge"]),
    )
    def test_interleaved_with_other_operations(self, ops, reader):
        counters = Counters()
        for position, (op, name, value) in enumerate(ops):
            if op == "observe":
                counters.observe(name, value)
            elif op == "increment":
                counters.increment(name, value)
            elif op == "merge":
                other = Counters()
                other.observe(name, value)
                counters.merge(other)
            elif op == "merge_dict":
                counters.merge_dict({name: value})
            else:  # a read in mid-stream, through whichever reader
                expected = _unbuffered(ops[:position]).as_dict()
                key = f"{HIST_PREFIX}{name}.sum"
                if reader == "get":
                    assert counters.get(key) == expected.get(key, 0)
                elif reader == "as_dict":
                    assert counters.as_dict() == expected
                elif reader == "iter":
                    assert list(counters) == list(expected.items())
                elif reader == "repr":
                    text = repr(counters)
                    assert all(f"{k!r}: {v}" in text for k, v in expected.items())
                else:
                    into = Counters()
                    into.merge(counters)
                    assert into.as_dict() == expected
        assert counters.as_dict() == _unbuffered(ops).as_dict()

    def test_context_observe_reaches_the_counters(self):
        ctx = Context(Counters())
        ctx.observe("x", 5)
        ctx.observe("x", 6)
        assert ctx.counters.get("hist.x.n") == 2
        assert ctx.counters.as_dict() == {
            "hist.x.b3": 2, "hist.x.n": 2, "hist.x.sum": 11,
        }

    def test_combiner_shares_the_map_tasks_buffer(self):
        """The combine context is a second ``Context`` over the map
        task's ``Counters``: what either observes is in the snapshot."""

        def mapper(line, ctx):
            for word in line.split():
                ctx.observe("word_len", len(word))
                ctx.emit(word, 1)

        def combiner(key, values, ctx):
            ctx.observe("combine_fan_in", len(values))
            ctx.emit(key, sum(values))

        job = MapReduceJob(
            name="wc", inputs=["in"], output="out", mapper=mapper,
            reducer=lambda key, values, ctx: None, combiner=combiner,
        )
        _stats, _partitioned, counters = execute_map_task(
            job, 0, "in", ["a bb a", "ccc a"], {}, 0, 0.0, None, 4
        )
        assert counters["hist.word_len.n"] == 5
        assert counters["hist.word_len.sum"] == 8
        assert counters["hist.combine_fan_in.n"] == 3
        assert counters["hist.combine_fan_in.sum"] == 5
        assert counters["hist.combine_fan_in.b2"] == 1  # "a" x3


class TestPerRecordCost:
    """Cost asserted as call counts, never as seconds."""

    def test_map_task_folds_a_histogram_once(self, monkeypatch):
        """N observations of one name cost ``2 + distinct buckets``
        counter increments per task, not ``3 * N``."""
        hist_increments = []

        class CountingCounters(Counters):
            def increment(self, name, amount=1):
                if name.startswith(HIST_PREFIX):
                    hist_increments.append(name)
                super().increment(name, amount)

        monkeypatch.setattr(cluster_module, "Counters", CountingCounters)
        job = MapReduceJob(
            name="lens", inputs=["in"], output="out",
            mapper=lambda line, ctx: ctx.observe("line_len", len(line)),
            reducer=lambda key, values, ctx: None,
        )
        records = ["x" * (n % 40) for n in range(500)]
        _stats, _partitioned, counters = execute_map_task(
            job, 0, "in", records, {}, 0, 0.0, None, 4
        )
        buckets = {bucket_of(len(line)) for line in records}
        assert counters["hist.line_len.n"] == 500
        assert len(hist_increments) <= 2 + len(buckets)
        assert len(set(hist_increments)) == len(hist_increments)

    def test_reduce_task_walks_its_bucket_once(self):
        """One ``iter(bucket)``; the group-size histogram and the
        tracer's ``top_groups`` still count every record of a group
        whose reducer stopped reading early."""

        class CountingList(list):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        def reducer(key, values, ctx):
            ctx.write((key, next(values)))  # leaves the rest unconsumed

        job = MapReduceJob(
            name="first", inputs=["in"], output="out",
            mapper=lambda line, ctx: None, reducer=reducer,
            group_key=lambda key: key[0],
        )
        pairs = [((n % 7, n), n) for n in range(100)] + [((9, 0), 0)]
        bucket = CountingList(reversed(pairs))
        tracer = Tracer()
        _stats, written, counters = execute_reduce_task(
            job, 3, bucket, None, tracer=tracer
        )
        assert bucket.iterations == 1
        assert written == [(g, g) for g in range(7)] + [(9, 0)]

        # what the second walk this replaced used to compute
        sizes = [
            (key, sum(1 for _ in group))
            for key, group in groupby(sorted(pairs), key=lambda pair: pair[0][0])
        ]
        expected = Counters()
        for _key, size in sizes:
            observe_into(expected.increment, "reduce.group_records", size)
        assert {
            k: v for k, v in counters.items() if k.startswith(HIST_PREFIX)
        } == expected.as_dict()
        assert counters["framework.reduce_input_groups"] == 8
        hot = sorted(sizes, key=lambda kv: (-kv[1], repr(kv[0])))[:5]
        (span,) = [e for e in tracer.raw_events() if e["name"] == "reduce:3"]
        assert span["args"]["top_groups"] == [(repr(k), n) for k, n in hot]


class TestSkewStats:
    def test_gini_even_and_degenerate(self):
        assert _gini([]) == 0.0
        assert _gini([0, 0, 0]) == 0.0
        assert _gini([5, 5, 5, 5]) == 0.0

    def test_gini_concentrated(self):
        # one reducer holds everything: (n-1)/n
        assert _gini([0, 0, 0, 9]) == pytest.approx(0.75)
        assert _gini([1, 9]) > _gini([4, 6])

    def test_p99_over_median(self):
        assert _p99_over_median([]) == 0.0
        assert _p99_over_median([0, 0, 5]) == 0.0  # median 0
        assert _p99_over_median([2, 2, 2, 2]) == 1.0
        # nearest-rank on 1..100: p99 = 99th value, median = 51st value
        assert _p99_over_median(list(range(1, 101))) == pytest.approx(99 / 51)


class TestUtilizationEdgeCases:
    """Satellite fix: ``ExecutorPhaseStats.utilization`` boundaries."""

    def test_inline_phase_is_zero(self):
        stats = ExecutorPhaseStats(mode="inline", workers=4, wall_s=1.0, busy_s=2.0)
        assert stats.utilization == 0.0

    def test_zero_workers_is_zero_not_crash(self):
        stats = ExecutorPhaseStats(mode="pool", workers=0, wall_s=1.0, busy_s=1.0)
        assert stats.utilization == 0.0

    def test_degenerate_wall_with_busy_work_is_full(self):
        stats = ExecutorPhaseStats(mode="pool", workers=2, wall_s=0.0, busy_s=0.5)
        assert stats.utilization == 1.0

    def test_degenerate_wall_without_work_is_zero(self):
        stats = ExecutorPhaseStats(mode="pool", workers=2, wall_s=0.0, busy_s=0.0)
        assert stats.utilization == 0.0

    def test_clamped_to_unit_interval(self):
        over = ExecutorPhaseStats(mode="pool", workers=1, wall_s=1.0, busy_s=5.0)
        assert over.utilization == 1.0
        negative = ExecutorPhaseStats(mode="pool", workers=1, wall_s=1.0, busy_s=-1.0)
        assert negative.utilization == 0.0

    def test_normal_case(self):
        stats = ExecutorPhaseStats(mode="pool", workers=4, wall_s=2.0, busy_s=4.0)
        assert stats.utilization == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# tracer / export
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_export_and_validate(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", "job", label="x"):
            with tracer.span("inner", "task"):
                pass
        tracer.instant("marker", "pool")
        path = tmp_path / "t.json"
        tracer.export(str(path))
        doc = load_trace(str(path))
        assert validate_trace(doc) == []
        names = [e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert names == ["outer", "inner"]  # ts-sorted, outer starts first

    def test_null_span_is_inert(self):
        span = trace_span(None, "x", "task")
        assert span is NULL_SPAN
        with span as s:
            assert s.set(a=1) is s
        span.close()

    def test_absorb_maps_worker_pids_to_lanes(self):
        parent = Tracer()
        with parent.span("driver-side", "job"):
            pass
        worker_events = [
            {"name": "map:0", "cat": "task", "ph": "X", "ts": 1.0, "dur": 1.0,
             "pid": parent.pid + 1, "tid": 0, "args": {}},
            {"name": "map:1", "cat": "task", "ph": "X", "ts": 2.0, "dur": 1.0,
             "pid": parent.pid + 2, "tid": 0, "args": {}},
        ]
        parent.absorb(worker_events)
        doc = parent.to_json()
        lanes = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert lanes == {
            "driver",
            f"worker-1 (pid {parent.pid + 1})",
            f"worker-2 (pid {parent.pid + 2})",
        }
        tids = {e["tid"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert tids == {0, 1, 2}
        # one unified logical process
        assert {e["pid"] for e in doc["traceEvents"]} == {parent.pid}

    def test_span_forest_nesting(self):
        tracer = Tracer()
        with tracer.span("job", "job"):
            with tracer.span("map", "phase"):
                with tracer.span("map:0", "task"):
                    pass
            with tracer.span("reduce", "phase"):
                pass
        roots = _build_span_forest(tracer.to_json())
        assert [r.name for r in roots] == ["job"]
        assert [c.name for c in roots[0].children] == ["map", "reduce"]
        assert roots[0].children[0].children[0].name == "map:0"

    def test_validate_rejects_broken_documents(self):
        assert validate_trace({}) == ["traceEvents: missing or not a list"]
        assert validate_trace({"traceEvents": []}) == ["traceEvents: empty"]
        bad_order = {
            "traceEvents": [
                {"name": "a", "cat": "", "ph": "X", "ts": 5.0, "dur": 1.0,
                 "pid": 1, "tid": 0},
                {"name": "b", "cat": "", "ph": "X", "ts": 2.0, "dur": 1.0,
                 "pid": 1, "tid": 0},
            ]
        }
        assert any("not monotonic" in p for p in validate_trace(bad_order))
        missing = {"traceEvents": [{"ph": "X", "ts": 0.0, "dur": 1.0, "tid": 0}]}
        problems = validate_trace(missing)
        assert any("'name'" in p for p in problems)
        assert any("'pid'" in p for p in problems)


# ---------------------------------------------------------------------------
# the observe-only guarantee (differential, both engines)
# ---------------------------------------------------------------------------


ENGINES = ["sequential"] + (["persistent"] if HAVE_FORK else [])


class TestObserveOnly:
    """Differential-matrix cells (``tests/matrix.py``) with a tracer."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_self_join_bit_identical_with_tracing(self, make_engine, engine, kernel):
        run = cell(
            make_engine, "self", BASE.with_options(kernel=kernel),
            engine=engine, observer="trace",
        )
        assert len(run.observer) > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rs_join_bit_identical_with_tracing(self, make_engine, engine):
        assert len(cell(make_engine, "rs", engine=engine, observer="trace").observer) > 0

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_engines_agree_on_histogram_counters(self, make_engine):
        """The per-partition byte histogram (driver-side) and the task
        histograms (worker-side) merge to the same totals on both
        engines — the cross-engine determinism contract extends to the
        ``hist.*`` namespace (the universal assertion compares them)."""
        counters = cell(make_engine, engine="persistent").counters
        assert any(name.startswith(HIST_PREFIX) for name in counters)


#: ``hist.*`` counters of three histograms on ``generate_dblp(2000, 7)``
#: (x ``generate_citeseerx(1000, 9)`` sharing its publications for R-S)
#: at threshold 0.8, measured at the commit before observations were
#: buffered: one made per record in the Stage-2 mapper, one per record
#: in Stage 3 (OPRJ's mapper; BRJ's fill reducer makes the same, once
#: per RID group), one per reduce group by the framework.  The last was
#: re-pinned when OPRJ became the default: Stage 3 contributes one
#: job's groups (one per RID pair) instead of BRJ's two, so the fill
#: job's 2,000 / 3,000 RID groups (one per record) left
PINNED_HISTOGRAMS = {
    "self": {
        "hist.reduce.group_records.b1": 2876,
        "hist.reduce.group_records.b2": 1929,
        "hist.reduce.group_records.b3": 389,
        "hist.reduce.group_records.b4": 188,
        "hist.reduce.group_records.b5": 40,
        "hist.reduce.group_records.n": 5422,
        "hist.reduce.group_records.sum": 11589,
        "hist.stage2.record_routes.b2": 1306,
        "hist.stage2.record_routes.b3": 694,
        "hist.stage2.record_routes.n": 2000,
        "hist.stage2.record_routes.sum": 6384,
        "hist.stage3.pairs_per_rid.b0": 1357,
        "hist.stage3.pairs_per_rid.b1": 413,
        "hist.stage3.pairs_per_rid.b2": 210,
        "hist.stage3.pairs_per_rid.b3": 20,
        "hist.stage3.pairs_per_rid.n": 2000,
        "hist.stage3.pairs_per_rid.sum": 964,
    },
    "rs": {
        "hist.reduce.group_records.b1": 2654,
        "hist.reduce.group_records.b2": 1625,
        "hist.reduce.group_records.b3": 466,
        "hist.reduce.group_records.b4": 297,
        "hist.reduce.group_records.b5": 102,
        "hist.reduce.group_records.b6": 9,
        "hist.reduce.group_records.n": 5153,
        "hist.reduce.group_records.sum": 14158,
        "hist.stage2.record_routes.b1": 1,
        "hist.stage2.record_routes.b2": 2007,
        "hist.stage2.record_routes.b3": 992,
        "hist.stage2.record_routes.n": 3000,
        "hist.stage2.record_routes.sum": 9493,
        "hist.stage3.pairs_per_rid.b0": 2683,
        "hist.stage3.pairs_per_rid.b1": 248,
        "hist.stage3.pairs_per_rid.b2": 55,
        "hist.stage3.pairs_per_rid.b3": 14,
        "hist.stage3.pairs_per_rid.n": 3000,
        "hist.stage3.pairs_per_rid.sum": 424,
    },
}


class TestDblpCounters:
    """Whole-join counters on the benchmark's kind of corpus: engines
    agree on every entry, and the histograms are the parent commit's."""

    @staticmethod
    def _report(join: str, cluster=None, config=None):
        """The join on *cluster*, by default a default-sized sequential
        one."""
        workload = "dblp" if join == "self" else "dblp-csx"
        return run_join(
            cluster or SimulatedCluster(), workload, config or JoinConfig()
        ).report

    @pytest.mark.parametrize("join", ["self", "rs"])
    def test_histograms_pinned_and_engines_agree(self, make_engine, join):
        report = self._report(join)
        counters = report.counters()
        pinned = PINNED_HISTOGRAMS[join]
        prefixes = tuple({key.rsplit(".", 1)[0] + "." for key in pinned})
        assert {
            k: v for k, v in counters.items() if k.startswith(prefixes)
        } == pinned
        if HAVE_FORK:
            pooled = self._report(
                join, make_engine(config=ClusterConfig(), dfs=InMemoryDFS())
            )
            assert pooled.executor_summary()["pooled_phases"] > 0
            assert pooled.counters() == counters
        # BRJ's fill reducer records OPRJ's Stage-3 histogram, once per RID
        brj = self._report(join, config=JoinConfig(stage3="brj")).counters()
        per_rid = "hist.stage3.pairs_per_rid."
        assert {k: v for k, v in brj.items() if k.startswith(per_rid)} == {
            k: v for k, v in pinned.items() if k.startswith(per_rid)
        }

    def test_stage2_replication_and_max_reducer_input(self):
        """The two Stage-2 shape numbers of arXiv:1204.1754, as the
        wall benchmark computes them outside the program."""
        report = self._report("self")
        assert report.stage2_replication == 6384 / 2000 == 3.192
        assert report.stage2_max_reducer_input == 256
        fresh = type(report)(combo="-", output_file="-")
        assert (fresh.stage2_replication, fresh.stage2_max_reducer_input) == (0.0, 0)


# ---------------------------------------------------------------------------
# end-to-end trace content + report
# ---------------------------------------------------------------------------


class TestTraceReport:
    @pytest.fixture(scope="class")
    def traced_digests(self, tmp_path_factory):
        """One individual-routing and one grouped-routing traced join."""
        out = {}
        for routing, num_groups in (("individual", None), ("grouped", 3)):
            cluster = make_cluster()
            cluster.tracer = Tracer()
            run_join(
                cluster, "self", BASE.with_options(routing=routing, num_groups=num_groups)
            )
            path = tmp_path_factory.mktemp("traces") / f"{routing}.json"
            cluster.tracer.export(str(path))
            doc = load_trace(str(path))
            assert validate_trace(doc) == []
            out[routing] = digest_trace(doc, path=str(path))
        return out

    def test_digest_covers_all_stages_and_jobs(self, traced_digests):
        digest = traced_digests["individual"]
        assert set(digest.stage_walls) == {"stage1", "stage2", "stage3"}
        job_names = [job.name for job in digest.jobs]
        assert "bto-count" in job_names
        assert "stage2-pk-self" in job_names
        assert "oprj" in job_names
        for job in digest.jobs:
            assert set(job.phases) == {"map", "shuffle", "reduce"}
            for phase, (wall, tasks, busy, _straggler, straggler_us) in job.phases.items():
                assert wall >= 0 and busy >= 0 and straggler_us >= 0
                if phase in ("map", "reduce"):  # shuffle has no task spans
                    assert tasks > 0

    def test_skew_digest_distinguishes_routing(self, traced_digests):
        ind = traced_digests["individual"].skew[0]
        grp = traced_digests["grouped"].skew[0]
        assert ind.routing == "individual"
        assert ind.num_groups == "per-token"
        assert grp.routing == "grouped"
        assert grp.num_groups == "3"
        # grouped routing dedups a record's routes, so it ships fewer
        # replicas — but both runs shuffled real load
        assert sum(ind.loads) >= sum(grp.loads) > 0
        assert ind.hot_groups and grp.hot_groups
        # fewer groups concentrate load into fewer, bigger reduce tasks
        assert max(grp.loads) >= max(ind.loads)

    def test_report_text_mentions_critical_path_and_skew(self, traced_digests):
        text = format_trace_report(traced_digests["individual"])
        assert "critical path" in text
        assert "stage2" in text
        assert "gini=" in text
        assert "p99/median=" in text
        assert "straggler" in text

    def test_routing_comparison_lists_both_traces(self, traced_digests):
        text = format_routing_comparison(
            [traced_digests["individual"], traced_digests["grouped"]]
        )
        assert "routing=individual" in text
        assert "routing=grouped" in text
        assert text.count("gini=") == 2

    def test_comparison_without_skew_data(self):
        empty = digest_trace({"traceEvents": []})
        assert "no stage-2 skew data" in format_routing_comparison([empty])
        assert "no stage-2 spans" in format_trace_report(empty)


class TestJoinReportMetrics:
    def test_join_counters_decode_into_histograms(self):
        counters = run_join(make_cluster(), "self").report.counters()
        decoded = histograms(counters)
        for name in (
            "reduce.group_records",
            "shuffle.partition_bytes",
            "stage1.token_frequency",
            "stage2.prefix_tokens",
            "stage2.record_routes",
            "stage2.group_records",
        ):
            assert decoded[name].count > 0, name
        # every hist.* key of the join is a field of one histogram:
        # n, sum and one per occupied bucket
        assert sum(len(h.buckets) + 2 for h in decoded.values()) == sum(
            key.startswith(HIST_PREFIX) for key in counters
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTraceCli:
    def test_selfjoin_trace_flag_and_trace_report(self, rng, tmp_path, capsys):
        from repro.cli import main

        records = random_records(rng, 50)
        inp = tmp_path / "in.tsv"
        inp.write_text("\n".join(records) + "\n", encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        trace = tmp_path / "trace.json"
        assert main([
            "selfjoin", str(inp), "-o", str(out),
            "--threshold", "0.5", "--trace", str(trace),
        ]) == 0
        assert validate_trace(load_trace(str(trace))) == []

        assert main(["trace-report", "--validate-only", str(trace)]) == 0
        assert main(["trace-report", str(trace)]) == 0
        text = capsys.readouterr().out
        assert "critical path" in text
        assert "gini=" in text
        assert "routing balance comparison" not in text
        # several traces: the side-by-side balance table is appended
        assert main(["trace-report", str(trace), str(trace)]) == 0
        assert "routing balance comparison" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content, problem, lines, reported",
        [
            ('{"traceEvents": [{"ph": "X", "ts": -3}]}', "missing 'name'", 5, True),
            ('{"traceEvents": [{"ph": "X", "ts"', "cannot read: Expecting", 1, False),
            (None, "cannot read: [Errno 2]", 1, False),
            ('{"id": 5}', "traceEvents: missing or not a list", 1, False),
        ],
        ids=["invalid", "truncated", "missing", "not-a-trace"],
    )
    @pytest.mark.parametrize("validate_only", [True, False], ids=["validate", "report"])
    def test_trace_report_rejects_invalid_file(
        self, tmp_path, capsys, content, problem, lines, reported, validate_only
    ):
        """A file that cannot be read, parsed or validated is a problem
        of that file: ``path: ...`` lines, exit 1, no traceback.  What
        parsed of a trace is still reported; a document with no event
        list is not a trace and gets no report."""
        from repro.cli import main

        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content, encoding="utf-8")
        flags = ["--validate-only"] if validate_only else []
        assert main(["trace-report", *flags, str(bad)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == lines and problem in err[0]
        assert all(line.startswith(f"{bad}: ") for line in err)
        assert bool(captured.out) == (reported and not validate_only)
