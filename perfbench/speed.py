"""The host's current speed, read from a fixed piece of reference work.

The benchmark runs on a few cores of a shared host whose throughput swings
by up to half between periods that last from seconds to minutes, for the
same code on the same input.  A run cannot wait such a period out, so every
time the benchmark reports is scaled to a nominal host speed:

    reported = measured * NOMINAL_BURST_S / (median time of the bursts nearby)

A burst is a fixed, deterministic pure-Python computation (walking a small
expression tree with float arithmetic, the same kind of interpreter work the
package does) that does not touch the package.  During the timed loop a
``Sampler`` runs one every ``INTERVAL_S`` seconds of wall time from a
SIGALRM handler, so the speed is read during long operations too; the time
a handler takes is taken out of the operation it interrupted.  Bursts and
operations are timed by the thread's CPU time: the host also takes the CPU
away for whole milliseconds at a time (steal time, up to a third of some
seconds), which a median of short bursts does not see but a long operation
would add up.  The raw times and the speed factor are printed beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

# Median burst time, on one pinned CPU, of the host the benchmark was
# written on (a 2-core VM of an Intel Xeon at 2.1 GHz, Python 3.11).
NOMINAL_BURST_S = 0.0025
INTERVAL_S = 0.1      # wall time between bursts in the timed loop
NEARBY_S = 0.3        # bursts this close to an operation set its speed


def _tree(depth: int, k: int) -> tuple:
    if depth == 0:
        return ("x", k % 3) if k % 2 else ("c", 0.5 + k)
    return (("add", "mul", "abs", "sin")[k % 4], _tree(depth - 1, 2 * k + 1),
            _tree(depth - 1, 2 * k + 2))


_TREE = _tree(8, 0)


def _evaluate(node: tuple, env: dict) -> float:
    tag = node[0]
    if tag == "c":
        return node[1]
    if tag == "x":
        return env[node[1]]
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    if tag == "add":
        return a + b
    if tag == "mul":
        return a * b * 0.5
    if tag == "abs":
        return abs(a - b)
    return math.sin(a) + b * 0.25


def burst() -> float:
    """CPU seconds of this thread taken by one reference burst."""
    env = {0: 0.1, 1: -0.3, 2: 0.7}
    t0 = time.thread_time()
    for i in range(28):
        env[0] = 0.01 * i
        _evaluate(_TREE, env)
    return time.thread_time() - t0


class Sampler:
    """Bursts every INTERVAL_S seconds of wall time while on (a context
    manager), plus any taken with ``take``.  Records when each handler ran
    (perf_counter), the CPU time it took, and the CPU time of its burst."""

    def __init__(self):
        self.starts: list = []    # perf_counter at handler entry, ascending
        self.spent: list = []     # handler CPU time
        self.bursts: list = []    # burst CPU time
        self._busy = False

    def take(self, *_):
        if self._busy:            # a signal that arrived during a burst
            return
        self._busy = True
        t0, c0 = time.perf_counter(), time.thread_time()
        b = burst()
        self.starts.append(t0)
        self.bursts.append(b)
        self.spent.append(time.thread_time() - c0)
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.take()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.take()
        return False

    def _span(self, t0: float, t1: float) -> tuple:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def stolen(self, t0: float, t1: float) -> float:
        """CPU time of the handlers that ran inside the wall interval [t0, t1)."""
        i, j = self._span(t0, t1)
        return sum(self.spent[i:j])

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_BURST_S over the median burst within NEARBY_S of the wall
        interval [t0, t1) (over all bursts if none is that close)."""
        i, j = self._span(t0 - NEARBY_S, t1 + NEARBY_S)
        near = self.bursts[i:j] or self.bursts
        return NOMINAL_BURST_S / statistics.median(near)
