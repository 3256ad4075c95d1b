"""A speedometer for a box whose CPUs change speed under the benchmark.

On a shared host each vCPU drops to anywhere between half and nine
tenths of its speed whenever its host neighbours are busy, in phases
that last from milliseconds to minutes; nothing the guest can read
(steal time, frequency, hardware counters) shows it.  Identical joins
then take 3.1-5.5 s, and neither the fastest nor the median run of a
40 s window repeats within 25 % from one invocation to the next.

So the end-to-end runs are timed next to a *probe*: a second process
(this file, run as a script) that does one fixed unit of join-like work
(split a record, order its tokens by rank, build a tuple, post it to
three bounded lists of a 3 000-entry index) over and over and counts
the units.  It is pinned to the same CPU as the process under test, at
``nice 5``, so the scheduler hands it about a quarter of that CPU in
millisecond slices spread over the whole run: it lives through the
same phases.  Units per second of the probe's *own* CPU time is the
speed the CPU had during the run, and

    seconds at reference speed = seconds measured * rate / REFERENCE_RATE

is what the run would have taken on the undisturbed box.  Wall time is
first reduced by the share of the section during which the probe had
the CPU (on one pinned CPU the two never run at once), so waiting that
leaves the CPU idle is handed to the probe and does not show; the
sequential workloads wait for nothing.

Measured on this box, 178 joins in twenty invocations: CPU time as the
clock read it varied within an invocation with a standard deviation of
8 %, at reference speed of 1.7 %; the probe's rate ranged from 126 000
to 231 000 units/s.

Nothing here imports the program under test.
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

#: probe units per second of probe CPU time on this box in a calm spell
#: (Xeon 2.1 GHz vCPU, CPython 3.11, probe sharing its CPU with a join):
#: a reading taken at this rate is reported unchanged.  Only a scale:
#: changing it rescales every time the benchmark reports.
REFERENCE_RATE = 200000.0
#: the probe's scheduling weight: about a quarter of the CPU it shares
PROBE_NICE = 5
#: distinct tokens of the probe's records, which sets the size of the
#: index it posts to and so how much of its time is memory access.  The
#: box's slow phases are of more than one kind: with 50 000 tokens the
#: probe slowed more than the join (join time ~ rate^-0.8 over 250 runs),
#: with 400 less (rate^-1.17), with 3 000 alike (rate^-0.96).
VOCABULARY = 3000
_ANSWER_TIMEOUT_S = 20.0


@dataclass
class Speed:
    """What the probe saw during one section."""

    #: wall time of the section
    wall_s: float = 0.0
    #: CPU time the probe had during it
    probe_cpu_s: float = 0.0
    #: probe units per second of that CPU time (REFERENCE_RATE unprobed)
    rate: float = REFERENCE_RATE

    @property
    def factor(self) -> float:
        return self.rate / REFERENCE_RATE

    def cpu(self, seconds: float) -> float:
        """CPU time of the process under test, at reference speed."""
        return seconds * self.factor

    def wall(self, seconds: float) -> float:
        """Wall time of something within the section, at reference speed
        and without the share of it the probe had the CPU."""
        share = self.probe_cpu_s / self.wall_s if self.wall_s else 0.0
        return seconds * (1.0 - share) * self.factor


class SpeedProbe:
    """Controls one probe process; use as a context manager."""

    def __init__(self) -> None:
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(os.getpid())],
            stdout=subprocess.PIPE, text=True,
        )
        if self._answer() != "ready":
            raise RuntimeError("the speed probe did not start")
        return self

    def __exit__(self, *exc_info) -> None:
        proc, self._proc = self._proc, None
        proc.kill()
        proc.wait()
        proc.stdout.close()

    def _answer(self) -> str:
        ready, _, _ = select.select([self._proc.stdout], [], [], _ANSWER_TIMEOUT_S)
        if not ready:
            raise RuntimeError("the speed probe does not answer")
        return self._proc.stdout.readline().strip()

    def _snapshot(self) -> tuple[int, float]:
        os.kill(self._proc.pid, signal.SIGUSR1)
        units, cpu = self._answer().split()
        return int(units), float(cpu)

    @contextlib.contextmanager
    def section(self, cpu: int | None):
        """Confine this process (and so every child it starts inside the
        section) and the probe to *cpu*, and fill the yielded
        :class:`Speed` when the section ends.  With ``cpu=None`` nothing
        is pinned or probed: wall time is taken as measured."""
        speed = Speed()
        if cpu is None:
            start = time.perf_counter()
            try:
                yield speed
            finally:
                speed.wall_s = time.perf_counter() - start
            return
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(self._proc.pid, {cpu})
        os.sched_setaffinity(0, {cpu})
        try:
            units0, cpu0 = self._snapshot()
            start = time.perf_counter()
            try:
                yield speed
            finally:
                speed.wall_s = time.perf_counter() - start
                units1, cpu1 = self._snapshot()
                speed.probe_cpu_s = cpu1 - cpu0
                speed.rate = (units1 - units0) / speed.probe_cpu_s
        finally:
            os.sched_setaffinity(0, allowed)


# -- the probe process -------------------------------------------------------


def _die_with_parent(parent: int) -> None:
    """Have the kernel kill this process when its parent is gone, however
    the parent went."""
    import ctypes

    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGKILL)
    if os.getppid() != parent:  # it went before the call
        os._exit(0)


def _probe_main(parent: int) -> None:
    import random

    _die_with_parent(parent)
    os.nice(PROBE_NICE)
    rng = random.Random(1)
    vocabulary = [f"tok{i:05d}" for i in range(VOCABULARY)]
    lines = [
        "\t".join([
            str(i),
            " ".join(rng.choice(vocabulary) for _ in range(rng.randint(6, 18))),
            "x" * 40,
        ])
        for i in range(20000)
    ]
    rank = {token: i for i, token in enumerate(vocabulary)}
    postings: dict[str, list] = {token: [] for token in vocabulary}
    units = 0

    def unit(line: str) -> None:
        fields = line.split("\t")
        tokens = sorted(set(fields[1].split()), key=rank.__getitem__)
        record = (int(fields[0]), tuple(tokens))
        for token in tokens[:3]:
            posted = postings[token]
            posted.append(record)
            if len(posted) > 4:
                del posted[0]

    def report(_signum, _frame) -> None:
        sys.stdout.write(f"{units} {time.process_time()!r}\n")
        sys.stdout.flush()

    # every unit must cost the same: fill the bounded lists first
    for _ in range(4):
        for line in lines:
            unit(line)
    signal.signal(signal.SIGUSR1, report)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while True:
        for line in lines:
            unit(line)
            units += 1


if __name__ == "__main__":
    _probe_main(int(sys.argv[1]))
