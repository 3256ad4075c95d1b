"""Atomic artifact writes: a reader never observes a half-written file."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.obs.atomicio import atomic_write_json, atomic_write_text


def test_atomic_write_text_roundtrip(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), lambda fh: fh.write("hello\n"))
    assert path.read_text() == "hello\n"
    assert not os.path.exists(str(path) + ".tmp")


def test_atomic_write_json_compact_and_indented(tmp_path):
    compact = tmp_path / "compact.json"
    atomic_write_json(str(compact), {"b": 1, "a": [1, 2]})
    assert compact.read_text() == '{"b":1,"a":[1,2]}\n'
    pretty = tmp_path / "pretty.json"
    atomic_write_json(str(pretty), {"a": 1}, indent=2)
    assert json.loads(pretty.read_text()) == {"a": 1}
    assert "\n" in pretty.read_text()


def test_atomic_write_replaces_existing_file(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(str(path), {"v": 1})
    atomic_write_json(str(path), {"v": 2})
    assert json.loads(path.read_text()) == {"v": 2}


def test_failing_writer_leaves_no_target_and_no_tmp(tmp_path):
    path = tmp_path / "out.txt"

    def boom(fh):
        fh.write("partial")
        raise RuntimeError("mid-write failure")

    with pytest.raises(RuntimeError):
        atomic_write_text(str(path), boom)
    assert not path.exists()
    assert not os.path.exists(str(path) + ".tmp")


def test_failing_writer_preserves_previous_contents(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_json(str(path), {"v": 1})

    def boom(fh):
        fh.write('{"v": 2')  # truncated JSON, then die
        raise RuntimeError("mid-write failure")

    with pytest.raises(RuntimeError):
        atomic_write_text(str(path), boom)
    assert json.loads(path.read_text()) == {"v": 1}


_KILL_SCRIPT = """
import sys
from repro.obs.atomicio import atomic_write_json

path = sys.argv[1]
doc = {"rows": list(range(200_000)), "label": "x" * 4096}
i = 0
while True:
    atomic_write_json(path, dict(doc, generation=i))
    i += 1
    print(i, flush=True)
"""


_KILL_CHECKPOINT_SCRIPT = """
import sys
from repro.join.checkpoint import JoinCheckpoint

checkpoint = JoinCheckpoint(sys.argv[1])
checkpoint.begin({"join": "self"})
steps = [f"blocks:reduce:{n}" for n in range(100_000)]
i = 0
while True:
    checkpoint.save_memory_steps(steps + [f"generation:{i}"])
    i += 1
    print(i, flush=True)
"""


def _check_rows_doc(doc):
    assert doc["rows"][-1] == 199_999
    assert doc["label"] == "x" * 4096


def _check_checkpoint_manifest(doc):
    assert doc["identity"] == {"join": "self"}
    assert doc["memory_steps"][-2] == "blocks:reduce:99999"
    assert doc["memory_steps"][-1].startswith("generation:")


def test_kill_mid_write_never_corrupts_target(tmp_path):
    """SIGKILL a process that is rewriting the same file in a loop; the
    target must always be absent or complete valid JSON (the .tmp file
    may linger — only the published path is guaranteed).  Holds for a
    bare ``atomic_write_json`` and for the checkpoint manifest, the one
    artifact whose job is to survive a kill."""
    cases = [
        (_KILL_SCRIPT, tmp_path / "manifest.json", tmp_path / "manifest.json",
         _check_rows_doc),
        (_KILL_CHECKPOINT_SCRIPT, tmp_path / "ckpt", tmp_path / "ckpt" / "manifest.json",
         _check_checkpoint_manifest),
    ]
    for script, argument, target, check in cases:
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(argument)],
            stdout=subprocess.PIPE,
            env=dict(os.environ),
        )
        try:
            # wait until at least one full write landed, then kill mid-loop
            assert proc.stdout is not None
            proc.stdout.readline()
            time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert target.exists()
        check(json.loads(target.read_text()))
