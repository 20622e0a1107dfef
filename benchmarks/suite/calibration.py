"""Host-speed sampling: how fast this host runs Python while a measurement runs.

The benchmark runs on shared machines whose speed drifts by up to a factor
of two, over seconds to minutes, as neighbours load the physical CPUs.
CPU time drifts with it (the process is slowed, not descheduled), so
neither wall nor CPU time alone is steady.

While a measurement runs, a :class:`HostSampler` interrupts the process
every ``PERIOD_S`` of wall time and times one fixed slice of pure-Python
arithmetic on the thread's CPU clock.  Processes forked inside the block
(campaign pool workers) sample themselves the same way and report through
shared memory.  The slices see the host as the measured code sees it at
that moment, so scaling a measured span by the mean slice time within it
(raised to ``SLOWDOWN_EXPONENT``) cancels most of the drift, while a change
in the program leaves the slices alone.  On the reference host this took
the run-to-run spread of a five-second pass from 9–18% down to about 3%
(README.md, "Host normalization").  The slice allocates no container
objects, so it never triggers a garbage collection whose cost would depend
on the program's heap.
"""

from __future__ import annotations

import mmap
import os
import signal
import statistics
import struct
import time
from typing import Dict, List, Optional, Tuple

#: Wall-clock seconds between slices.
PERIOD_S = 0.025
#: Mean slice time on the reference host (2 vCPUs, CPython 3.11) when
#: quiet, so normalized seconds read as that host's seconds.
REFERENCE_SLICE_S = 0.00035
#: How much faster than the slice the simulator slows as the host gets
#: busier: a span's host factor is ``(REFERENCE_SLICE_S / slice) ** this``
#: (set-up probes excepted, see :func:`normalize_setup`).
#: Interpreter code that walks a large heap loses more to contention than
#: arithmetic does; 1.2 fitted every workload better than 1 (README.md,
#: "Host normalization").  It scales the host only, so a change in the
#: program still moves normalized times as it moves raw ones.
SLOWDOWN_EXPONENT = 1.2
#: Forked processes whose slices one sampler can collect; later forks are
#: not sampled.
MAX_FORKS = 64
#: A forked process's shared-memory slot: slices taken, their total seconds.
_SLOT = struct.Struct("dd")

#: A point in time: the raw clock and how many ticks this process had taken.
Mark = Tuple[float, int]


def _slice(scratch: Dict[int, int]) -> None:
    total = 0
    for i in range(3000):
        total += i * i % 7
        scratch[i & 63] = total


class HostSampler:
    """Samples host speed on a timer while the ``with`` block runs, and
    turns spans measured inside the block into reference-host seconds.

    Each tick of this process records its own slice and the mean slice
    time of every slice taken here and in forks since the previous tick.
    Ticks are even in wall time, so averaging that per-tick mean weights
    every moment of a span alike, however many forks were sampling.  One
    tick runs on entry, so a block shorter than the period still has a
    sample.  Signals reach only the main thread, so use it there.
    """

    def __init__(self) -> None:
        #: Per tick of this process: its own slice, and the mean slice time
        #: here and in forks since the previous tick.
        self.slices: List[float] = []
        self.speeds: List[float] = []
        self._scratch = {i: 0 for i in range(64)}
        self._previous = None
        self._active = False
        self._shared = mmap.mmap(-1, MAX_FORKS * _SLOT.size)
        self._forked = 0
        #: Fork slices this process had seen at its previous tick.
        self._seen = (0, 0.0)
        #: In a forked process: its slot, and its slice count and total.
        self._slot: Optional[int] = None
        self._own = (0, 0.0)
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork)

    def _fork_totals(self) -> Tuple[int, float]:
        n, total = 0, 0.0
        for slot in range(min(self._forked, MAX_FORKS)):
            fork_n, fork_s = _SLOT.unpack_from(self._shared, slot * _SLOT.size)
            n, total = n + int(fork_n), total + fork_s
        return n, total

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.thread_time()
        _slice(self._scratch)
        elapsed = time.thread_time() - start
        if self._slot is not None:
            self._own = (self._own[0] + 1, self._own[1] + elapsed)
            _SLOT.pack_into(self._shared, self._slot * _SLOT.size, *self._own)
            return
        fork_n, fork_s = self._fork_totals()
        n, total = 1 + fork_n - self._seen[0], elapsed + fork_s - self._seen[1]
        self._seen = (fork_n, fork_s)
        self.slices.append(elapsed)
        self.speeds.append(total / n)

    def _before_fork(self) -> None:
        if self._active:
            self._forked += 1

    def _after_fork(self) -> None:
        if self._active and self._slot is None and self._forked <= MAX_FORKS:
            self._slot = self._forked - 1
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def __enter__(self) -> "HostSampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._active = True
        return self

    def __exit__(self, *_exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return time.perf_counter(), len(self.slices)

    def raw_since(self, mark: Mark) -> float:
        """This host's seconds since ``mark``, slices included."""
        return time.perf_counter() - mark[0]

    def since(self, mark: Mark) -> float:
        """Reference-host seconds since ``mark``.

        This process's slices since the mark are taken out of the span and
        the ticks since the mark give the host's speed; a span too short
        to hold a tick uses every tick so far.
        """
        raw = self.raw_since(mark)
        first = mark[1]
        speeds = self.speeds[first:] or self.speeds
        return (raw - sum(self.slices[first:])) * _host_factor(statistics.mean(speeds))

    def scale(self) -> float:
        """Factor from this host's seconds to reference-host seconds, over
        every tick so far."""
        return _host_factor(statistics.mean(self.speeds))

    def summary(self) -> Dict[str, float]:
        """Tick count, this process's slice seconds, and the mean speed."""
        return {
            "n": len(self.slices),
            "total_s": sum(self.slices),
            "mean_s": statistics.mean(self.speeds),
        }


def _host_factor(mean_slice_s: float) -> float:
    return (REFERENCE_SLICE_S / mean_slice_s) ** SLOWDOWN_EXPONENT


def normalize_setup(raw_s: float, slices: Dict[str, float]) -> float:
    """Reference-host seconds for a set-up probe that took ``raw_s``, sampled
    by a sampler whose :meth:`HostSampler.summary` is ``slices``; the slices'
    time is taken out.

    A probe is mostly interpreter start-up and imports, not a walk over a
    large heap, and it slows as the slice does: the plain ratio (exponent 1)
    fitted probes better than ``SLOWDOWN_EXPONENT`` (README.md).
    """
    return (raw_s - slices["total_s"]) * REFERENCE_SLICE_S / slices["mean_s"]
