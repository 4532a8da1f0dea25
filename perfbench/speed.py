"""Reference-speed probe: how fast this process's core runs right now.

The machines this benchmark runs on share their cores with other tenants, and
the speed of one core drifts by up to a factor of two over seconds to
minutes (see README.md, "Why times are rescaled").  Longer runs do not average
that away.  The probe interrupts the process every PERIOD_S seconds with
SIGALRM and times one of four small fixed kernels in the handler, in turn:
a plain integer loop, big-integer OR/popcount (the search's bitboard work),
dict/tuple work (the loss route) and shallow recursion that grows tuples (the
search's depth-first calls).  A time measured over a window is then
rescaled to the reference speed, piece by piece between samples: each piece
is multiplied by ``REFERENCE_NS / kernel_ns``, where kernel_ns sums the four
kernels' lower-quartile times over the NEAREST samples around the piece.
The kernels are the benchmark's own code, so a change to the program cannot
move them.  The handler costs about 1% of the run.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter_ns

PERIOD_S = 0.02
# Summed kernel times on an unloaded core of the machine the benchmark was
# tuned on (Intel Xeon, 2.1 GHz; the 1st percentile over 16-sample windows
# of 24 rounds): rescaled times are seconds at that speed.
REFERENCE_NS = 650_000
NEAREST = 16  # samples behind one rescaling factor


def _k_loop():
    s = 0
    for i in range(3000):
        s += (i * 7) & 0xFF
    return s


def _k_bigint():
    m, s = (1 << 600) - 1, 0
    for i in range(600):
        m = (m ^ (m >> 3)) | (1 << (i % 600))
        s += m.bit_count()
    return s


def _k_dict():
    d = {}
    for i in range(1000):
        d[(i, i & 7)] = i
    return sum(d.get((i, 3), 0) for i in range(1000))


def _k_rec():
    def walk(depth, sel):
        if depth == 0:
            return sel
        return walk(depth - 1, sel + (depth,)) if depth & 1 else walk(depth - 1, sel)

    s = 0
    for _ in range(40):
        s += len(walk(40, ()))
    return s


KERNELS = (_k_loop, _k_bigint, _k_dict, _k_rec)


def kernel_ns(samples) -> float:
    """Summed lower-quartile time of each kernel among the samples.

    A kernel is slowed, never sped up, by what else runs on the core; the
    lower quartile followed the core's speed more steadily than the median,
    the mean or the minimum did.
    """
    by_kernel: dict[int, list[int]] = {}
    for _, k, ns in samples:
        by_kernel.setdefault(k, []).append(ns)
    if len(by_kernel) != len(KERNELS):
        raise RuntimeError("speed probe window misses a kernel")
    return float(sum(sorted(v)[len(v) // 4] for v in by_kernel.values()))


class SpeedProbe:
    """Samples kernel times on SIGALRM between start() and stop()."""

    def __init__(self):
        self.samples: list[tuple[int, int, int]] = []  # (start ns, kernel, ns)
        self._ticks = 0
        self._previous = None

    def _tick(self, signum, frame):
        self._sample(self._ticks % len(KERNELS))
        self._ticks += 1

    def _sample(self, k: int) -> None:
        # A collection of the program's garbage must not be charged to the
        # kernel; the kernel's own garbage is collected later, as usual.
        enabled = gc.isenabled()
        gc.disable()
        t = perf_counter_ns()
        KERNELS[k]()
        self.samples.append((t, k, perf_counter_ns() - t))
        if enabled:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer and restore the previous handler; idempotent."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def calibrate(self) -> None:
        """Take NEAREST samples now, outside the timer."""
        for i in range(NEAREST):
            self._sample(i % len(KERNELS))

    def factor(self, t0: int, t1: int) -> float:
        """REFERENCE_NS / kernel_ns over the NEAREST samples nearest [t0, t1]."""
        mid = (t0 + t1) // 2
        near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]
        return REFERENCE_NS / kernel_ns(near)

    def rescale(self, t0: int, t1: int) -> float:
        """Seconds from t0 to t1 (perf_counter_ns), at reference speed.

        Windows holding at least NEAREST samples are rescaled piece by piece,
        each stretch between two samples by the NEAREST samples around it, so
        a change of speed inside a long window is followed.  Shorter windows
        get one factor from the samples nearest to them.
        """
        inside = [s for s in self.samples if t0 <= s[0] <= t1]
        if len(inside) < NEAREST:
            return (t1 - t0) / 1e9 * self.factor(t0, t1)
        edges = [t0] + [s[0] for s in inside[1:]] + [t1]
        half = NEAREST // 2
        scaled = 0.0
        for j in range(len(inside)):
            lo = min(max(0, j - half), len(inside) - NEAREST)
            piece = (edges[j + 1] - edges[j]) / 1e9
            scaled += piece * REFERENCE_NS / kernel_ns(inside[lo : lo + NEAREST])
        return scaled
