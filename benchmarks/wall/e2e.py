"""End-to-end side of the benchmark: whole-process CLI runs and the
checks made on each of them.

The program under test is driven only through ``python -m repro
selfjoin|rsjoin <files> -o <out> --threshold <t> [--parallel 2]``; it
receives nothing but the generated TSV files.

Nothing here imports the program, and the process that times the runs
must stay that small: on Linux the ``ru_maxrss`` a parent reads for a
child is never less than the parent's own peak RSS at the moment it
spawned it, so whatever needs the program in memory (corpus generation,
the oracle, the traced run) is done in a forked child (:func:`in_child`).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from wallspec import PARALLEL_WORKERS, Workload

#: a CLI run longer than this is killed and counted as failed
RUN_TIMEOUT_S = 60.0
#: where POSIX shared memory shows up as files; the parallel engine's
#: segments and spill directories all start with this prefix
_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "repro-"


@dataclass
class CliRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


@dataclass
class Tally:
    """Attempted and failed operations of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def in_child(function, *args):
    """Run ``function(*args)`` in a forked child and return its result,
    so that the memory it needs never counts against this process."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def target() -> None:
        try:
            sender.send((True, function(*args)))
        except BaseException:  # reported to the parent, which raises
            sender.send((False, traceback.format_exc()))

    child = context.Process(target=target)
    child.start()
    sender.close()
    try:
        ok, payload = receiver.recv()
    except EOFError:
        ok, payload = False, "the child process died without a result"
    finally:
        child.join()
    if not ok:
        raise RuntimeError(f"{function.__name__} failed in its child process:\n{payload}")
    return payload


def child_env(src: Path) -> dict[str, str]:
    """Environment of every process under test: fixed hash seed, the
    sanitizer off, run manifests going to the run's own directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_SANITIZE", None)
    env.pop("REPRO_RUNS_DIR", None)
    return env


def available_cpus() -> list[int]:
    """CPUs this process may run on ([] where the platform cannot say)."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def run_process(argv: list[str], cwd: Path, env: dict[str, str]) -> CliRun:
    """Run *argv* to completion; wall is spawn to exit, CPU and peak RSS
    come from the same ``wait4`` and cover every worker the process
    reaped (peak RSS is the largest single process of that tree)."""
    with open(cwd / "stderr.log", "wb") as stderr:
        start = time.perf_counter()
        # a process group of its own, so that a timeout can kill its
        # workers with it -- but not a session of its own: with
        # sched_autogroup the scheduler would then share the CPU between
        # sessions and ignore the speed probe's nice value
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
            process_group=0,
        )
        killer = threading.Timer(RUN_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        _kill_group(proc.pid)  # workers of a killed parent
    return CliRun(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        proc.returncode,
    )


def _kill_group(pgid: int) -> None:
    """Kill every process of the group started for one run and wait
    until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def shm_entries() -> set[str]:
    try:
        return {e for e in os.listdir(_SHM_DIR) if e.startswith(_SHM_PREFIX)}
    except OSError:
        return set()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cli_argv(workload: Workload, inputs: list[str], output: str) -> list[str]:
    argv = [
        sys.executable, "-m", "repro",
        "selfjoin" if workload.kind == "self" else "rsjoin",
        *inputs, "-o", output, "--threshold", str(workload.threshold),
    ]
    if workload.parallel:
        argv += ["--parallel", str(PARALLEL_WORKERS)]
    return argv


# -- checked runs ------------------------------------------------------------


class JoinRunner:
    """Runs one workload's CLI command in its own directory, one join at
    a time.  Every process is one attempted operation; it fails on a
    non-zero exit, a timeout, a leaked ``/dev/shm`` entry, or when the
    comparison made on its output does not hold."""

    def __init__(self, workload: Workload, workdir: Path, src: Path, tally: Tally) -> None:
        self.workload = workload
        self.workdir = workdir
        self.env = child_env(src)
        self.tally = tally
        #: SHA-256 of the first full-size output; later runs must match it
        self.reference_sha: str | None = None

    def run(self, workload: Workload, inputs: list[str], output: str) -> tuple[CliRun, list[str]]:
        """One process under test and the problems found with it."""
        (self.workdir / output).unlink(missing_ok=True)
        before = shm_entries()
        result = run_process(cli_argv(workload, inputs, output), self.workdir, self.env)
        problems = []
        if result.returncode != 0:
            tail = (self.workdir / "stderr.log").read_text(errors="replace")[-300:]
            problems.append(f"exit status {result.returncode}: {tail.strip()}")
        leaked = shm_entries() - before
        if leaked:
            problems.append(f"leaked /dev/shm entries: {sorted(leaked)[:3]}")
        return result, problems

    def join(self, inputs: list[str], what: str) -> CliRun:
        """The workload's own command on the full input; the output must
        be byte-identical to the reference, which is the first full-size
        output this runner saw."""
        result, problems = self.run(self.workload, inputs, "out.tsv")
        if not problems:
            sha = sha256_file(self.workdir / "out.tsv")
            if self.reference_sha is None:
                self.reference_sha = sha
            elif sha != self.reference_sha:
                problems.append("output differs from the reference output")
        self.tally.record(what, problems)
        return result

    def sequential_reference(self, inputs: list[str]) -> CliRun:
        """Run the sequential engine on the parallel workload's input and
        make *its* output the reference: every parallel run must then
        reproduce it byte for byte.  Call before :meth:`join`."""
        sequential = replace(self.workload, parallel=False)
        result, problems = self.run(sequential, inputs, "out.tsv")
        if not problems:
            self.reference_sha = sha256_file(self.workdir / "out.tsv")
        self.tally.record("sequential reference run", problems)
        return result
