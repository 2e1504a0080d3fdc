"""Machine speed, measured next to the workload, so times can be scaled to a fixed speed.

The benchmark runs on a shared virtual machine whose neighbours slow every
process on it, by up to a factor of two, in spells that last from seconds to
tens of minutes.  Whole runs move together, so repeats and medians alone do
not steady the figures.  This module times a fixed pure-Python kernel that
never touches the package, interleaved with the workload, and the gated times
are reported *at reference speed*:

    scaled = measured * REF_NS / (kernel time measured alongside it)

A change to the package moves scaled times exactly as it moves measured ones,
because the kernel does not run package code; a change of machine speed moves
the kernel and the workload together and cancels.  The measured (unscaled)
times are printed too.

* ``Ticker`` samples inside a worker process: a ``SIGALRM`` handler runs the
  kernel every ``INTERVAL_S`` seconds and the time it takes is subtracted
  from the request it interrupted.  The signal is blocked outside requests,
  so it never interrupts the worker's pipe reads and writes.
* ``probe_ns`` forks a child that times the kernel: ``run.py`` probes
  between the processes it times, so each sample comes from a new process,
  placed on a processor the way the timed ones were.
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter_ns

REF_NS = 4_000_000  # the kernel's time on an idle 2-vCPU Xeon VM, Python 3.11
WINDOW = 5  # samples per estimate; a median of five absorbs one preempted sample
PROBE_SAMPLES = 3
INTERVAL_S = 0.25


class _Cell:
    __slots__ = ("pos", "neg")

    def __init__(self, pos: int, neg: int):
        self.pos = pos
        self.neg = neg

    def join(self, other: "_Cell") -> "_Cell":
        return _Cell(self.pos | other.pos, self.neg & other.neg)


def kernel(n: int = 4400) -> int:
    """Fixed interpreter work of the kinds the package does: objects, ints, dicts, strings."""
    counts: dict = {}
    acc = 0
    x = _Cell(0, -1)
    for i in range(n):
        key = (i & 63, (i >> 6) & 31)
        counts[key] = counts.get(key, 0) + 1
        x = x.join(_Cell(i & 0xFF, ~i))
        acc += len(str(i)) + ((x.pos ^ x.neg) & 7)
    return acc + len(counts)


def sample() -> int:
    """Nanoseconds of one kernel run."""
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


def probe_ns() -> float:
    """Median of ``PROBE_SAMPLES`` kernel runs in a forked child process."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, then leave without running any cleanup
        try:
            os.close(read_end)
            os.write(write_end, str(statistics.median(
                sample() for _ in range(PROBE_SAMPLES))).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        out = pipe.read()
    os.waitpid(pid, 0)
    return float(out)


class Ticker:
    """Kernel samples taken by a ``SIGALRM`` handler while the process works.

    ``stolen_ns`` sums the handler's time, so a request's own time is its wall
    time minus the growth of ``stolen_ns`` over it.
    """

    def __init__(self):
        self.samples: list = [sample() for _ in range(WINDOW)]
        self.stolen_ns = 0

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter_ns()
        self.samples.append(sample())
        self.stolen_ns += perf_counter_ns() - t0

    def start(self) -> "Ticker":
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        signal.signal(signal.SIGALRM, self._tick)
        self.arm(True)
        return self

    def arm(self, on: bool) -> None:
        """Start or stop the ticks; a tick already pending still runs."""
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S if on else 0, INTERVAL_S)

    def __enter__(self) -> "Ticker":
        """Let ticks in, for the duration of one request."""
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return self

    def __exit__(self, *exc) -> None:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})

    def ref_ns(self, since: int) -> float:
        """Kernel time for a request that began at sample index ``since``.

        A request that spans ``WINDOW`` samples or more gets their mean: its
        time is a sum over its span, and the machine can switch between a
        fast and a slow state within it, where a median would pick one state.
        A shorter request gets the median of the last ``WINDOW`` samples.
        """
        during = self.samples[since:]
        if len(during) >= WINDOW:
            return statistics.fmean(during)
        return statistics.median(self.samples[-WINDOW:])
