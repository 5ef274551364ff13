"""Running ``spinmtc`` as a user does: one child process per operation.

Each child is reaped with ``wait4`` so its own CPU time and peak RSS are
read exactly, and a timer kills it when it overruns its timeout.  The
process is only reaped after the kill decision is settled, so the timer can
never signal a recycled pid.

The speed of a virtual CPU on a shared host swings by a factor of about
1.7 (presumably another tenant on the same physical core), in spells from
seconds to minutes, and the two virtual CPUs swing independently.  So the
harness and its children stay on one CPU (``pin_one_cpu``).  A fixed slice of
interpreter work is timed on that CPU (``probe_once``): back to back before
and after each operation, and from a thread of the harness every
``PROBE_EVERY_S`` while it runs (``Sampler``).  An operation's time is
multiplied by ``scale``, the reference probe time over the probe time seen
around and during it, which gives seconds at the reference speed.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracles
from workloads import Op


@dataclass
class Outcome:
    """What one operation did: its cost, its output, and why it failed (if it did)."""

    op: Op
    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int | None
    out_bytes: int
    failure: str | None
    # probes taken while the child ran (see ``Sampler``)
    probes: list[float] = field(default_factory=list)
    # reference-speed seconds per measured second (see ``scale``)
    scale: float = 1.0


# CPU time of one ``_probe_work`` at the reference speed.  Reported times are
# seconds at this speed; change it and every earlier number is off scale.
PROBE_REFERENCE_S = 0.0025
PROBE_REPEATS = 7
# While a child runs, one probe every this many seconds (about 1% of the CPU).
PROBE_EVERY_S = 0.25
# The probes around an operation count as this many probes taken during it.
AROUND_WEIGHT = 2


def _probe_work() -> None:
    """Fixed interpreter work of the kinds the program does: rationals, dicts, sorting."""
    x = Fraction(0)
    d: dict[int, int] = {}
    for i in range(1, 640):
        x += Fraction(i, i + 7)
        d[i % 31] = d.get(i % 31, 0) + i * i
    sorted(range(6000), key=lambda v: -v)


def probe_once() -> float:
    """CPU time of one ``_probe_work`` on this thread; time spent preempted is not counted."""
    t0 = time.thread_time()
    _probe_work()
    return time.thread_time() - t0


def probe_times() -> list[float]:
    """``PROBE_REPEATS`` probes in a row (a few milliseconds in all)."""
    return [probe_once() for _ in range(PROBE_REPEATS)]


def scale(around: list[float], during: list[float]) -> float:
    """The factor that turns an operation's measured time into reference-speed seconds.

    ``around`` are the back-to-back probes just before and after it,
    ``during`` those the ``Sampler`` took while it ran.  A probe during an
    operation finds its caches cold and follows the program's speed more
    closely, so the longer the operation, the more its own probes decide.
    """
    probe = statistics.median(around)
    if during:
        k = len(during)
        probe = (k * statistics.median(during) + AROUND_WEIGHT * probe) / (k + AROUND_WEIGHT)
    return PROBE_REFERENCE_S / probe


class Sampler:
    """Probes every ``PROBE_EVERY_S`` on a thread of its own, as long as the ``with`` block runs."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self.probes.append(probe_once())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def pin_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Program:
    """The ``spinmtc`` CLI of one checkout, run from a scratch directory."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("SPINMTC_MAX_DEGREE", None)
        self.env["PYTHONPATH"] = str(root / "src")
        # fixed hashing, so set iteration order is the same in every run
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(
        self, args: list[str], timeout: float
    ) -> tuple[float, float, int, int | None, str, str, list[float]]:
        """Run ``python3 <args>``.

        Returns wall, cpu, max RSS (KB), exit code or None on timeout, out,
        err, and the probes taken while the child ran.
        """
        with (
            tempfile.TemporaryFile(dir=self.workdir) as out,
            tempfile.TemporaryFile(dir=self.workdir) as err,
            Sampler() as sampler,
        ):
            lock = threading.Lock()
            state = {"reaped": False, "killed": False}
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, cwd=self.workdir, env=self.env
            )

            def kill() -> None:
                with lock:
                    if not state["reaped"]:
                        proc.kill()
                        state["killed"] = True

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                with lock:
                    state["reaped"] = True
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        code = None if state["killed"] else proc.returncode
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss, code, stdout, stderr, sampler.probes

    def run(self, op: Op, timeout: float) -> Outcome:
        """Run one operation through the CLI and check its answer."""
        args = ["-m", "spinmtc.cli", *op.argv, "--format", "json"]
        wall, cpu, rss, code, stdout, stderr, probes = self.spawn(args, timeout)
        if code is None:
            failure = f"timeout after {timeout:.0f} s"
        else:
            failure = oracles.check(op.oracle, op.expect, code, stdout, stderr)
        return Outcome(op, wall, cpu, rss, code, len(stdout.encode()), failure, probes)


def summary(values: list[float]) -> dict:
    """Sample count, median and quartiles, as the run record stores them."""
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def read_commit(root: Path) -> str | None:
    """The checked-out commit when ``root`` is a git work tree, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None
