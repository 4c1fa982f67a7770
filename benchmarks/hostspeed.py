"""Co-timed reference kernel: how fast the host runs this interpreter now.

The measuring host is a shared VM whose speed for interpreter-bound code
changes by up to 2x, in bursts of milliseconds and in spells of tens of
seconds to minutes, and not alike on its two CPUs (other tenants' load;
no steal time shows, and CPU time slows exactly as wall time does).  A
run's raw time therefore says as much about the host as about the program.

A *chunk* of the reference kernel is a fixed piece of the same kinds of
work as the library's hot paths, written without varint: 2x2 Newton
steps in Python floats and in 20-digit mpmath, with mpmath's LU solve.
It uses no NumPy, so it may run in a thread while the suite forks its
pool workers.  Its CPU time is taken with ``time.thread_time``, which
leaves out any time the thread waits for the GIL or a CPU.

A :class:`Sampler` thread times one chunk every ``PERIOD_S`` while a
request runs.  The request's time divided by the chunk time during it is
host-independent to first order; multiplied by :data:`REFERENCE_S`,
about the shortest chunk time on the measuring host, it is again in
seconds.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

import mpmath

#: About the shortest chunk time seen on the measuring host (2-vCPU Xeon VM, CPython 3.11).
REFERENCE_S = 1.2e-3
PERIOD_S = 0.1  # one chunk per period


#: A private mpmath context: the global ``mpmath.mp`` precision is shared by
#: all threads, and the library's extended runs set it while the chunk runs.
_MP = mpmath.MPContext()
_MP.dps = 20


def _chunk() -> float:
    x0, x1 = 0.3, 0.2
    for _ in range(150):
        r0, r1 = x0 * x0 + x1 - 0.5, math.sin(x0) - x1
        a, b, c, d = 2 * x0, 1.0, math.cos(x0), -1.0
        det = a * d - b * c
        x0 -= 0.01 * (d * r0 - b * r1) / det
        x1 -= 0.01 * (a * r1 - c * r0) / det
    y0, y1 = _MP.mpf(3) / 10, _MP.mpf(2) / 10
    for _ in range(6):
        A = _MP.matrix([[2 * y0, 1], [_MP.cos(y0), -1]])
        r = _MP.matrix([y0 * y0 + y1 - _MP.mpf(1) / 2, _MP.sin(y0) - y1])
        step = _MP.lu_solve(A, r)
        y0, y1 = y0 - step[0] / 100, y1 - step[1] / 100
    return x0 + float(y0)


def _timed_chunk() -> float:
    started = time.thread_time()
    _chunk()
    return time.thread_time() - started


class Sampler:
    """Times chunks in background threads while a request runs:
    ``with Sampler(pin_caller) as s: ...``, then ``s.chunk_s()``.

    ``pin_caller=True`` is for a request that runs in the calling thread
    (or in a child process it starts, which inherits the pin): the calling
    thread and one chunk thread are pinned to one CPU for the duration, so
    the chunks time the CPU the request runs on; the host's CPUs are not
    slowed alike.  Each chunk holds the GIL and so pauses the request, about
    1% of its time, the same share on every run.  ``thread_time`` leaves
    out the chunk thread's waits for the GIL.

    ``pin_caller=False`` is for a request whose work runs in other
    processes started by the library (the suite's pool workers, which must
    not inherit a pin): one chunk thread is pinned to each CPU this process
    may use, and :meth:`chunk_s` averages the CPUs' medians.
    """

    def __init__(self, pin_caller: bool):
        cpus = sorted(os.sched_getaffinity(0))
        self._caller_cpu = {cpus[0]} if pin_caller else None
        self._samples = {cpu: [] for cpu in (cpus[:1] if pin_caller else cpus)}
        self._saved = None
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,), name=f"hostspeed-{cpu}", daemon=True)
                         for cpu in self._samples]

    def _loop(self, cpu: int):
        os.sched_setaffinity(0, {cpu})  # this thread only
        samples = self._samples[cpu]
        while True:
            samples.append(_timed_chunk())
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self):
        if self._caller_cpu:
            self._saved = os.sched_getaffinity(0)
            os.sched_setaffinity(0, self._caller_cpu)
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()
        if self._saved:
            os.sched_setaffinity(0, self._saved)
        return False

    def chunk_s(self) -> float:
        """The host's chunk time during the request."""
        return statistics.mean(statistics.median(s) for s in self._samples.values())
