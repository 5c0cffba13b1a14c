"""Host-speed calibration: measured time expressed in reference-host time.

The benchmark runs on a few vCPUs of a host shared with other tenants.  What
they run changes how fast a vCPU executes (through shared cores, caches and
clock frequency) by up to 2x, over seconds to minutes and differently on
each vCPU, while the measured process is never descheduled.  CPU time does
not see it and longer runs only average it.

So every timed block is bracketed by *probes*: fixed work timed on the same
vCPU just before and just after the block.  The block's time is multiplied
by ``REF_NOMINAL_NS`` over the mean of the two probes: the time the block
would have taken on a host where the probe takes exactly ``REF_NOMINAL_NS``.
A slowdown of the host slows the probes with the block and cancels out; a
slowdown of the program does not touch the probes and shows in full.

A probe is two kernels of about equal length: pure-Python work
(:func:`reference_kernel`) and system calls (:func:`syscall_kernel`).
Neither alone follows every workload.  Over five minutes of alternating
blocks on a shared 2-vCPU VM, raw block times wandered by 15-16% between
50-second stretches.  Calibrated by the Python kernel, compress blocks
still wandered by 3.2% and cold-cache query blocks by 2.0%; by the system
calls, 1.3% and 3.2%.  Weighted equally, the two left 1.2-3.8% on every
block kind tried, and on service round trips 10% where the Python kernel
alone left 16%.  Neither kernel allocates objects the garbage collector
tracks, so a collection of the program's garbage never runs inside a
probe.

:class:`Stopwatch` applies this to a sequence of blocks: each :meth:`lap`
closes one block, probes, and starts the next, so consecutive blocks share
their probes and probe time is never part of a block.  :meth:`restart`
starts the next block later, so the harness's bookkeeping between blocks
is not part of one either.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List

__all__ = ["REF_NOMINAL_NS", "REF_ROUNDS", "SYS_ROUNDS", "Stopwatch", "probe",
           "reference_kernel", "syscall_kernel"]

#: Iterations of each kernel in one probe: about half a millisecond each
#: on a 2020s server core.
REF_ROUNDS = 1500
SYS_ROUNDS = 750
#: Probe time of the reference host, by definition.
REF_NOMINAL_NS = 1_000_000

#: Read-only inputs of the kernel: 1 MiB of byte lookups spread like a
#: decoded record set, and a dict probed like the record cache.
_TABLE = bytes(range(256)) * 4096
_WEIGHTS = {k: k % 7 for k in range(1024)}


def reference_kernel(rounds: int) -> int:
    """Interpreter dispatch, integer arithmetic, shifts and masks, byte-table
    and dict lookups: the instruction mix of the program's query and codec
    paths."""
    table, weights = _TABLE, _WEIGHTS
    acc = 0
    x = 12345
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc = (acc ^ (table[x >> 11] << (x & 7))) + weights[x & 1023]
    return acc


def syscall_kernel(rounds: int) -> None:
    """Kernel entry and exit: one-byte writes and reads through a pipe, the
    path a service request takes through the socket layer, without waking
    another thread."""
    r, w = os.pipe()
    try:
        for _ in range(rounds):
            os.write(w, b"x")
            os.read(r, 1)
    finally:
        os.close(r)
        os.close(w)


def probe(clock: Callable[[], int] = time.perf_counter_ns) -> int:
    """Nanoseconds one run of both kernels takes right now."""
    t0 = clock()
    reference_kernel(REF_ROUNDS)
    syscall_kernel(SYS_ROUNDS)
    return clock() - t0


class Stopwatch:
    """Calibrated laps over consecutive blocks of work.

    ``probe`` and ``clock`` are injectable for tests.  After each lap,
    ``scale`` holds the factor that lap's raw times were multiplied by, so
    per-operation latencies measured inside the block can be converted the
    same way.
    """

    def __init__(self, probe: Callable[[], int] = probe,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._probe = probe
        self._clock = clock
        self.probes: List[int] = []
        self.scale = 1.0
        #: Calibrated and raw seconds over all laps.
        self.total_s = 0.0
        self.raw_s = 0.0
        self._before = self._take()
        self._t0 = clock()

    def _take(self) -> int:
        ns = self._probe()
        self.probes.append(ns)
        return ns

    def lap(self, count: bool = True) -> float:
        """Close the running block: its calibrated seconds.  The next block
        starts when this returns.  A block closed with ``count=False`` is
        left out of the totals."""
        raw = self._clock() - self._t0
        after = self._take()
        self.scale = 2 * REF_NOMINAL_NS / (self._before + after)
        self._before = after
        seconds = raw * self.scale / 1e9
        if count:
            self.total_s += seconds
            self.raw_s += raw / 1e9
        self._t0 = self._clock()
        return seconds

    def restart(self) -> None:
        """Start the running block now: the time since the last lap is
        left out of every block."""
        self._t0 = self._clock()
