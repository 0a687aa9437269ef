"""CPU-speed reference for timings on a shared machine.

On a shared virtual machine the speed of one CPU drifts by up to 2x from
minute to minute, while the work a momentkit command does stays the same.
`Sampler` runs a fixed pure-Python loop (exact Fraction arithmetic and
tuple-keyed dicts, the same kind of work momentkit does) from a timer signal
every `interval` seconds, on the same CPU and in the same process as the
measured code, and records how long each run of the loop took.

The loop runs with the garbage collector off, so a collection of the
measured program's heap never lands in it; `heap_check` measures how much a
live heap the size of hom-rank's changes the loop's speed otherwise.

`Sampler.reference_seconds(start, end)` converts a measured interval into
seconds at the reference speed: the interval minus the loop runs inside
it, times REF_S over the mean loop time.  REF_S is the loop's usual mean on
the machine the baseline was taken on (2-vCPU Xeon VM, Python 3.11.7), so
the figures read as seconds on that machine at its usual speed.
"""

import gc
import signal
import statistics
import sys
import time
from fractions import Fraction

REF_S = 1.3e-3


def reference_loop():
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(5, i % 13 + 2)
        key = (i % 5, i % 3)
        table[key] = table.get(key, Fraction(0)) + acc
    return acc, table


class Sampler:
    """Runs reference_loop on a SIGALRM timer; keeps (start, end) of each run."""

    def __init__(self, interval, on_sample=None):
        self.interval = interval
        self.samples = []
        self.on_sample = on_sample

    def _tick(self, signum, frame):
        self.sample()

    def sample(self):
        """Run the reference loop once and record it.  The garbage collector
        is off meanwhile, so a collection of the measured program's heap is
        never charged to the loop."""
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((start, end))
        if self.on_sample is not None:
            self.on_sample(start, end)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, start, end, fallback=None):
        """Seconds of [start, end] at reference speed.  The speed is the mean
        loop time inside the interval, or over `fallback` (start, end) when
        fewer than 3 loop runs fell inside it."""
        inside = [(s, e) for s, e in self.samples if start <= s and e <= end]
        busy = sum(e - s for s, e in inside)
        basis = inside if len(inside) >= 3 or fallback is None else \
            [(s, e) for s, e in self.samples if fallback[0] <= s and e <= fallback[1]]
        if not basis:
            raise RuntimeError("no reference-loop samples in the measured interval")
        mean = sum(e - s for s, e in basis) / len(basis)
        return (end - start - busy) * REF_S / mean


HEAP_ROUNDS = 100
HEAP_LOOPS = 10


def heap_check():
    """Does a live heap slow the reference loop down?

    Each round takes the mean loop time (as `reference_seconds` does) with
    no heap of ours, then with a heap like hom-rank's (1200 rows of 1000
    distinct ints) live, then again after freeing it, and keeps the ratio of
    the middle time to the mean of the outer two, which cancels a steady
    drift of the CPU's speed.  Returns the heap's size and the median and
    quartiles of the ratios; a median near 1 means the loop's speed does not
    depend on the measured program's heap."""
    def mean_loop():
        sampler = Sampler(None)
        for _ in range(HEAP_LOOPS):
            sampler.sample()
        return statistics.fmean(e - s for s, e in sampler.samples)

    def make_heap():
        return [list(range(10**6 + 1000 * i, 10**6 + 1000 * (i + 1))) for i in range(1200)]

    ratios = []
    for _ in range(HEAP_ROUNDS):
        before = mean_loop()
        heap = make_heap()
        live = mean_loop()
        del heap
        ratios.append(2 * live / (before + mean_loop()))
    heap_mib = sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row))
                   for row in make_heap()) / 2**20
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    return {"heap_mib": round(heap_mib, 1), "rounds": HEAP_ROUNDS, "loops": HEAP_LOOPS,
            "median_ratio": med, "q1": q1, "q3": q3}
