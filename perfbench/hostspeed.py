"""The host's speed, sampled while the program runs.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed piece of Python work takes from about half to twice its usual
time, in spells that last from milliseconds to minutes.  A time taken
in one run of the benchmark therefore says as much about the
neighbours as about the program.  :class:`Probe` measures that drift alongside the
program: every ``PERIOD_S`` seconds of wall time a ``SIGALRM`` handler
interrupts the program between two bytecodes, runs :func:`chunk` — a
fixed, deterministic mix of the dict, tuple, string, list and integer
work the program itself does — and records the chunk's CPU time
(``time.thread_time``, so time spent descheduled does not count).

A time ``t`` measured next to chunks whose mean CPU time is ``c`` is
reported as ``t * REF_CHUNK_S / c``: seconds on a host where one chunk
takes ``REF_CHUNK_S``.  A change to the program moves ``t`` and not
``c``; a slower host moves both.  The probe's own CPU time is returned
so it can be taken out of the program's wall and CPU time.  (Not its
wall time: where pool workers do the work, they go on working while
the probing process is interrupted.)

A timer is not inherited across ``fork``, so a child forked while the
probe is entered (a pool worker) starts its own and reports its chunks
through shared memory: where the workers do the work, the host is
sampled where the work runs.
"""

from __future__ import annotations

import gc
import mmap
import os
import signal
import struct
import time
from typing import Any, Optional, Tuple

PERIOD_S = 0.1
CHUNK_ITERATIONS = 1000
REF_CHUNK_S = 0.003
MAX_CHILDREN = 64
_SLOT = struct.Struct("dqd")  # chunk seconds, chunks, probe CPU seconds


def chunk() -> int:
    """A fixed piece of interpreter work, independent of the program.

    Its dict keys hold no strings, whose hashes change from process to
    process, so every process probes with the same dict layout."""
    table: dict = {}
    acc = 0
    for i in range(CHUNK_ITERATIONS):
        key = (i % 97, i * 31 % 1009, i % 211)
        table[key] = table.get(key, 0) + len("a%d" % i)
        row = [j * i for j in range(20)]
        row.sort(reverse=True)
        acc ^= hash(key) + row[3]
    return acc


class Probe:
    """Sample the host's speed every ``PERIOD_S`` seconds while entered.

    ``chunk_s`` and ``chunks`` are the total CPU time and number of the
    chunks run in this process, ``cpu_s`` the probe's CPU time here, to
    subtract from the program's.  Garbage collection is off during a
    chunk, so a chunk never pays for collecting the program's objects.

    A process forked while the probe is entered (a pool worker) samples
    too: it starts its own timer and keeps its totals in a slot of a
    shared anonymous mapping, which :meth:`children` sums.
    """

    active: Optional["Probe"] = None

    def __init__(self) -> None:
        self.chunk_s = 0.0
        self.chunks = 0
        self.cpu_s = 0.0
        self._busy = False
        self._previous: Any = None
        self._shared = mmap.mmap(-1, MAX_CHILDREN * _SLOT.size)
        self._forks = 0
        self._slot: Optional[int] = None

    def _sample(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        cpu0 = time.process_time()
        thread0 = time.thread_time()
        try:
            chunk()
            self.chunk_s += time.thread_time() - thread0
            self.chunks += 1
        finally:
            self.cpu_s += time.process_time() - cpu0
            if collecting:
                gc.enable()
            self._busy = False
        if self._slot is not None:
            _SLOT.pack_into(self._shared, self._slot * _SLOT.size,
                            self.chunk_s, self.chunks, self.cpu_s)

    def children(self) -> Tuple[float, int, float]:
        """Chunk time, chunk count and probe CPU time of the processes
        forked while entered."""
        slots = [_SLOT.unpack_from(self._shared, index * _SLOT.size)
                 for index in range(min(self._forks, MAX_CHILDREN))]
        return (sum(slot[0] for slot in slots),
                int(sum(slot[1] for slot in slots)),
                sum(slot[2] for slot in slots))

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        Probe.active = self
        return self

    def __exit__(self, *_exc) -> None:
        Probe.active = None
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _before_fork() -> None:
    # The child inherits the count after this increment: its slot.
    if Probe.active is not None:
        Probe.active._forks += 1


def _after_fork_in_child() -> None:
    probe = Probe.active
    if probe is None or probe._slot is not None:
        return
    if probe._forks > MAX_CHILDREN:
        Probe.active = None
        return
    probe._slot = probe._forks - 1
    probe.chunk_s, probe.chunks, probe.cpu_s = 0.0, 0, 0.0
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


os.register_at_fork(before=_before_fork,
                    after_in_child=_after_fork_in_child)


def host_factor(chunk_s: float, chunks: int) -> float:
    """``REF_CHUNK_S`` over the mean chunk: multiply a time measured
    next to ``chunks`` chunks that took ``chunk_s`` by this to get
    reference seconds.

    The mean, not the median: a wall time adds up every slow spell it
    lives through, and chunks taken at a fixed rate sample those spells
    in proportion to their length."""
    if not chunks:
        raise ValueError("no host-speed samples were taken")
    return REF_CHUNK_S * chunks / chunk_s
