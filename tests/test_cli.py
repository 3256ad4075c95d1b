"""Tests for the command-line interface."""

import io
import json
import re
import sys

import pytest

from repro.cli import main
from repro.data.loaders import read_records, write_records
from repro.join.config import JoinConfig
from repro.join.records import RecordSchema, make_line
from repro.mapreduce.faults import TaskError

from tests.conftest import stage2_squeeze


@pytest.fixture
def catalog(tmp_path):
    path = tmp_path / "catalog.tsv"
    write_records(
        path,
        [
            make_line(1, ["alpha beta gamma delta", "smith"]),
            make_line(2, ["alpha beta gamma delta", "smith"]),
            make_line(3, ["something entirely different", "jones"]),
        ],
    )
    return path


class TestSelfJoin:
    def test_basic(self, catalog, tmp_path, capsys):
        out = tmp_path / "pairs.tsv"
        assert main(["selfjoin", str(catalog), "-o", str(out)]) == 0
        lines = read_records(out)
        assert len(lines) == 1
        similarity, rid1, rid2 = lines[0].split("\t")
        assert (rid1, rid2) == ("1", "2")
        assert float(similarity) == 1.0

    def test_output_may_name_the_input(self, catalog, tmp_path):
        """The input is read by the join's map tasks, all of them done
        before the output is written over it."""
        expected = tmp_path / "pairs.tsv"
        assert main(["selfjoin", str(catalog), "-o", str(expected)]) == 0
        assert main(["selfjoin", str(catalog), "-o", str(catalog)]) == 0
        assert catalog.read_bytes() == expected.read_bytes()

    def test_full_records(self, catalog, tmp_path):
        out = tmp_path / "pairs.tsv"
        main(["selfjoin", str(catalog), "-o", str(out), "--full-records"])
        lines = read_records(out)
        assert "alpha beta gamma delta" in lines[0]

    def test_threshold_and_kernel_flags(self, catalog, tmp_path):
        out = tmp_path / "pairs.tsv"
        main(["selfjoin", str(catalog), "-o", str(out),
              "--threshold", "0.5", "--kernel", "bk", "--stage3", "oprj"])
        assert len(read_records(out)) >= 1

    def test_join_fields(self, tmp_path):
        path = tmp_path / "cat.tsv"
        write_records(path, [
            make_line(1, ["different titles", "same author words here"]),
            make_line(2, ["entirely other", "same author words here"]),
        ])
        out = tmp_path / "pairs.tsv"
        main(["selfjoin", str(path), "-o", str(out), "--join-fields", "2"])
        assert len(read_records(out)) == 1

    def test_blocks_flag(self, catalog, tmp_path):
        out = tmp_path / "pairs.tsv"
        main(["selfjoin", str(catalog), "-o", str(out),
              "--kernel", "bk", "--blocks", "3"])
        assert len(read_records(out)) == 1

    def test_stats_flag(self, catalog, tmp_path, capsys):
        out = tmp_path / "pairs.tsv"
        main(["selfjoin", str(catalog), "-o", str(out), "--stats"])
        err = capsys.readouterr().err
        assert "stage1" in err and "stage2" in err
        # Stage 2's line alone carries its replication and reducer size
        shaped = [line.split(":")[0].strip() for line in err.splitlines()
                  if re.search(r"replication \d+\.\d\d, max reducer input [\d,]+$", line)]
        assert shaped == ["stage2"]


class TestUserErrors:
    """What the user got wrong is one ``repro <command>: error:`` line
    and exit status 2, with no output written."""

    def _error_line(self, argv, out, capsys):
        try:
            status = main(argv + ["-o", str(out)])
        except SystemExit as exc:  # argparse: its usage, then the error
            status, lines = exc.code, capsys.readouterr().err.splitlines()[-1:]
        else:
            lines = capsys.readouterr().err.splitlines()
        assert status == 2
        (line,) = lines
        assert not out.exists()
        return line

    @pytest.mark.parametrize("flags,message", [
        (["--blocks", "4"], "block processing applies to the BK kernel"),
        # the signature width is a constant now, flag and all
        (["--bitmap-width", "0"], "unrecognized arguments: --bitmap-width 0"),
        (["--routing", "grouped", "--num-groups", "0"], "num_groups must be >= 1"),
        # plan-time memory admission is gone, flag and all
        (["--memory-budget-mb", "64"], "unrecognized arguments: --memory-budget-mb 64"),
        (["--threshold", "1.5"], "threshold must be at most 1.0 for jaccard"),
        # renamed to --max-task-attempts: it always counted attempts
        (["--max-task-retries", "1"], "unrecognized arguments: --max-task-retries 1"),
    ])
    def test_bad_config_is_reported_before_the_input_is_opened(
        self, tmp_path, capsys, flags, message
    ):
        argv = ["selfjoin", str(tmp_path / "nope.tsv")] + flags
        line = self._error_line(argv, tmp_path / "pairs.tsv", capsys)
        assert line.startswith(("repro selfjoin: error: ", "repro: error: "))
        assert message in line

    @pytest.mark.parametrize("flags,message", [
        (["--nodes", "0"], "num_nodes must be >= 1"),
        (["--parallel", "-1"], "workers must be >= 1"),
        (["--max-task-attempts", "0"], "--max-task-attempts must be >= 1"),
    ])
    def test_bad_cluster_shape(self, catalog, tmp_path, capsys, flags, message):
        argv = ["selfjoin", str(catalog)] + flags
        line = self._error_line(argv, tmp_path / "pairs.tsv", capsys)
        assert line.startswith("repro selfjoin: error: ") and message in line

    def test_missing_input(self, catalog, tmp_path, capsys):
        argv = ["rsjoin", str(catalog), str(tmp_path / "nope.tsv")]
        line = self._error_line(argv, tmp_path / "pairs.tsv", capsys)
        assert line.startswith("repro rsjoin: error: ") and "nope.tsv" in line

    def test_input_that_is_not_utf8(self, catalog, tmp_path, capsys):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes(b"1\tcaf\xe9 au lait\n")
        argv = ["rsjoin", str(catalog), str(bad)]
        line = self._error_line(argv, tmp_path / "pairs.tsv", capsys)
        assert line.startswith("repro rsjoin: error: ")
        assert "'utf-8' codec can't decode byte 0xe9" in line

    @pytest.mark.parametrize("spec,message", [
        ("raise:*:map:x:0", "task must be an integer or '*', got 'x'"),
        ("explode:oprj", "unknown fault kind 'explode'"),
    ])
    def test_malformed_fault_plan(self, catalog, tmp_path, capsys, spec, message):
        argv = ["selfjoin", str(catalog), "--faults", spec]
        line = self._error_line(argv, tmp_path / "pairs.tsv", capsys)
        assert line.startswith("repro selfjoin: error: ") and message in line

    @pytest.mark.parametrize("argv,message", [
        (["dblp", "-5"], "record count must be >= 0, got -5"),
        (["dblp", "10", "--increase", "0"], "factor must be >= 1, got 0"),
        (["skewed", "10", "--increase", "-1"], "factor must be >= 1, got -1"),
        (["citeseerx", "10", "--shared-with", "nope.tsv"], "nope.tsv"),
    ])
    def test_bad_generate_input(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        line = self._error_line(["generate"] + argv, tmp_path / "corpus.tsv", capsys)
        assert line.startswith("repro generate: error: ") and message in line


class TestRunManifest:
    def test_unwritable_runs_dir_warns_but_the_join_succeeds(
        self, catalog, tmp_path, capsys
    ):
        """The registry is observe-only: a finished join whose default-on
        manifest cannot be written exits 0 with one warning line."""
        out = tmp_path / "pairs.tsv"
        not_a_dir = tmp_path / "runs"
        not_a_dir.write_text("a regular file\n")
        assert main([
            "selfjoin", str(catalog), "-o", str(out), "--runs-dir", str(not_a_dir),
        ]) == 0
        assert len(read_records(out)) == 1
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning: run manifest not written: ")
        ]
        assert len(warnings) == 1
        assert not_a_dir.read_text() == "a regular file\n"


class TestFailedJoin:
    """A join that raises still exports its trace and leaves the
    terminal on a fresh line."""

    def _args(self, catalog, tmp_path):
        return [
            "selfjoin", str(catalog), "-o", str(tmp_path / "pairs.tsv"),
            "--faults", "raise:oprj", "--max-task-attempts", "1",
        ]

    def test_trace_is_exported(self, catalog, tmp_path):
        trace = tmp_path / "trace.json"
        with pytest.raises(TaskError):
            main(self._args(catalog, tmp_path) + ["--trace", str(trace)])
        assert main(["trace-report", "--validate-only", str(trace)]) == 0
        events = json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]
        assert any(
            e["ph"] == "i" and e["name"] == "fault-injected" for e in events
        )

    def test_progress_line_is_closed_on_a_tty(self, catalog, tmp_path, monkeypatch):
        class Tty(io.StringIO):
            def isatty(self) -> bool:
                return True

        stderr = Tty()
        monkeypatch.setattr(sys, "stderr", stderr)
        with pytest.raises(TaskError):
            main(self._args(catalog, tmp_path) + ["--progress"])
        # the traceback that follows must not land on the redrawn bar
        assert "\r" in stderr.getvalue()
        assert stderr.getvalue().endswith("\n")


class TestExecutionFlags:
    def test_parallel_flag(self, catalog, tmp_path):
        out = tmp_path / "pairs.tsv"
        main(["selfjoin", str(catalog), "-o", str(out), "--parallel", "2"])
        assert len(read_records(out)) == 1

    def test_dfs_dir_flag(self, catalog, tmp_path):
        out = tmp_path / "pairs.tsv"
        dfs_dir = tmp_path / "dfs"
        main(["selfjoin", str(catalog), "-o", str(out), "--dfs-dir", str(dfs_dir)])
        assert len(read_records(out)) == 1
        assert any(dfs_dir.iterdir())  # blocks persisted on disk


class TestRSJoin:
    def test_basic(self, catalog, tmp_path):
        s_path = tmp_path / "s.tsv"
        write_records(s_path, [make_line(9, ["alpha beta gamma delta", "smith"])])
        out = tmp_path / "linked.tsv"
        assert main(["rsjoin", str(catalog), str(s_path), "-o", str(out)]) == 0
        lines = read_records(out)
        rids = {tuple(l.split("\t")[1:]) for l in lines}
        assert rids == {("1", "9"), ("2", "9")}


class TestGenerate:
    def test_dblp(self, tmp_path):
        out = tmp_path / "dblp.tsv"
        assert main(["generate", "dblp", "25", "-o", str(out)]) == 0
        assert len(read_records(out)) == 25

    def test_increase(self, tmp_path):
        out = tmp_path / "dblp.tsv"
        main(["generate", "dblp", "10", "-o", str(out), "--increase", "3"])
        assert len(read_records(out)) == 30

    def test_citeseerx_shared(self, tmp_path):
        dblp = tmp_path / "dblp.tsv"
        main(["generate", "dblp", "20", "-o", str(dblp)])
        cx = tmp_path / "cx.tsv"
        main(["generate", "citeseerx", "20", "-o", str(cx),
              "--shared-with", str(dblp)])
        assert len(read_records(cx)) == 20

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestMemoryPressure:
    def _skewed(self, tmp_path):
        path = tmp_path / "skewed.tsv"
        write_records(
            path,
            [
                make_line(i, [f"word{i % 7} word{i % 11} word{i % 13} "
                              f"word{i % 3} common"])
                for i in range(200)
            ],
        )
        return path

    def _args(self, path, out):
        return [
            "selfjoin", str(path), "-o", str(out),
            "--threshold", "0.5", "--join-fields", "1", "--kernel", "pk",
        ]

    def _squeeze(self, path):
        """Half the Stage-2 reduce peak of the clean join of ``_args``."""
        config = JoinConfig(threshold=0.5, schema=RecordSchema((1,)), kernel="pk")
        return stage2_squeeze(read_records(path), config)

    def test_squeeze_recovery_reports_memory_line(self, tmp_path, capsys):
        out = tmp_path / "pairs.tsv"
        args = self._args(self._skewed(tmp_path), out)
        assert main(args) == 0
        clean = read_records(out)
        capsys.readouterr()

        runs = tmp_path / "runs"
        squeezed = args + ["--faults", self._squeeze(args[1]), "--runs-dir", str(runs)]
        assert main(squeezed) == 0
        err = capsys.readouterr().err
        assert "memory: replans=" in err
        assert read_records(out) == clean
        # the manifest names the plan that ran, not the one requested
        (manifest,) = runs.glob("*.json")
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        steps = doc["memory_steps"]
        assert doc["kernel"] == "bk" and steps[0] == "kernel:bk"
        assert doc["counters"]["memory.replans"] == len(steps)
        assert "memory.escalations" not in doc["counters"]

    def test_no_auto_degrade_surfaces_the_error(self, tmp_path):
        from repro.mapreduce.types import InsufficientMemoryError

        out = tmp_path / "pairs.tsv"
        path = self._skewed(tmp_path)
        args = self._args(path, out) + [
            "--faults", self._squeeze(path), "--no-auto-degrade",
        ]
        with pytest.raises(InsufficientMemoryError):
            main(args)
