"""Times measured regions in wall seconds and in reference-host seconds.

The benchmark runs on a few cores of a shared host whose speed other
tenants move by 20-40% within minutes, and they move all pure-Python work
in much the same way. While a region runs, a SIGALRM interval timer runs a
fixed pure-Python kernel every PERIOD_S seconds of wall time. The kernel
does the kinds of work ragsel's stages do: it splits strings, counts tokens
in dicts, fills a dict keyed by index pairs and sorts it, with the garbage
collector off, so the size of ragsel's heap does not move it. Its median
time over the regions, against REF_KERNEL_S, says how fast the host ran
meanwhile; a run that a page fault or a preemption stretched does not move
the median.

A region's reference time is its wall time less the kernel's. The CPU time
spent in it, by this process and by a server it waits on, is rescaled to
the reference speed. The rest (sleeping, waiting on the disk) is kept as
measured:

    ref_s = (wall - cpu) + cpu * REF_KERNEL_S / median_kernel_s

ragsel never runs the kernel, so a change to ragsel moves the reference
time as much as it moves the wall time. Handlers run in the main thread
between bytecodes, and interrupted system calls resume (PEP 475).
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.2
KERNEL_ROWS = 150
# The kernel's time on the host the reference seconds stand for: about its
# median on the 2-core Xeon VM the benchmark was tuned on.
REF_KERNEL_S = 0.02


def kernel() -> int:
    rng = random.Random(7)
    text = " ".join(f"w{rng.randrange(3000)}" for _ in range(8 * KERNEL_ROWS)).split()
    vectors = []
    for row in range(KERNEL_ROWS):
        counts: dict[str, int] = {}
        for word in text[8 * row:8 * row + 8]:
            counts[word] = counts.get(word, 0) + 1
        vectors.append(counts)
    sims: dict[tuple[int, int], float] = {}
    for i in range(KERNEL_ROWS):
        a = vectors[i]
        for j in range(i + 1, KERNEL_ROWS):
            b = vectors[j]
            sims[(i, j)] = sum(v * b.get(w, 0) for w, v in a.items()) / 8.0
    return len(sorted(sims.items(), key=lambda kv: (-kv[1], kv[0])))


class HostClock:
    """Accumulates the regions timed with `region()`. With `sample=False`
    no kernel runs inside them (for traced runs, whose spans it would
    inflate), and `ref_s` is not meaningful."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self._wall = self._cpu = 0.0
        self._kernel_wall = self._kernel_cpu = 0.0
        self._other_cpu = 0.0
        self._samples: list[float] = []

    def _run_kernel(self) -> tuple[float, float]:
        collecting = gc.isenabled()
        gc.disable()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            kernel()
            return time.perf_counter() - w0, time.process_time() - c0
        finally:
            if collecting:
                gc.enable()

    def _tick(self, _signum, _frame) -> None:
        wall, cpu = self._run_kernel()
        self._samples.append(wall)
        self._kernel_wall += wall
        self._kernel_cpu += cpu

    @contextmanager
    def region(self):
        previous = signal.signal(signal.SIGALRM, self._tick) if self.sample else None
        w0, c0 = time.perf_counter(), time.process_time()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self._wall += time.perf_counter() - w0
            self._cpu += time.process_time() - c0
            if self.sample:
                signal.signal(signal.SIGALRM, previous)

    def add_cpu(self, seconds: float) -> None:
        """CPU seconds another process spent serving these regions while
        this one waited on it."""
        self._other_cpu += seconds

    def wall_s(self) -> float:
        """Wall time of the regions so far, less the kernel's."""
        return self._wall - self._kernel_wall

    def speed(self) -> float:
        """REF_KERNEL_S over the kernel's median time; below 1 on a slow host.
        Regions shorter than PERIOD_S get one kernel run after them."""
        if not self._samples:
            self._samples.append(self._run_kernel()[0])
        return REF_KERNEL_S / statistics.median(self._samples)

    def ref_s(self) -> float:
        """Reference-host seconds of the regions so far."""
        wall = self.wall_s()
        cpu = min(max(self._cpu - self._kernel_cpu + self._other_cpu, 0.0), wall)
        return (wall - cpu) + cpu * self.speed()
