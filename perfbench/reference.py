"""The host-speed reference: a fixed workload timed in a child process.

The sizing host is a shared VM whose speed moves by up to 2x over
seconds and stays in slower or faster regimes for minutes, so whole
runs of the same code differ by more than any bound the benchmark
could set.  The benchmark therefore times :func:`work` just before
each pass or set-up and just after the last one, and rescales each
wall to the host speed at which :func:`work` takes :data:`REFERENCE_S`
(:func:`at_reference_speed`).  A change to the program moves the pass
and not the reference, so it moves the rescaled wall by the same share
as the raw one.

:func:`work` is no code of the program.  Its working set (a heap of
20k fresh tuples, a 64k-slot dict, a 600k-float array) is larger than
a core's caches, like the simulators', so cache and memory contention
from other tenants slows it as it slows them.  It runs in its own
process, so it cannot raise the benchmark process's peak RSS
(``rss_peak_mb``), and the program's heap and collector cannot slow it.

Run as a script, this file is that process: for each line on standard
input it prints the seconds one :func:`work` took, until input closes.
"""

from __future__ import annotations

import gc
import heapq
import random
import selectors
import subprocess
import sys
import time
from typing import Dict, List, Sequence

#: Heap entries held, heap operations, dict slots and array length of
#: :func:`work`, sized so that its interpreted and NumPy halves take
#: about as long as each other.
LIVE = 20_000
OPS = 20_000
SLOTS = 1 << 16
ARRAY = 600_000
#: Seconds :func:`work` took on the sizing host in a quiet period: the
#: scale of :func:`at_reference_speed`.
REFERENCE_S = 0.05
#: Bound on the child's start-up plus one timing.
TIMEOUT_S = 30.0


def work() -> float:
    """Seconds one run of the reference workload takes right now."""
    import numpy

    rng = random.Random(1)
    t0 = time.perf_counter()
    heap: List[tuple] = []
    acc: Dict[int, float] = {}
    for i in range(LIVE):
        heapq.heappush(heap, (rng.random(), i, [i]))
    for i in range(OPS):
        heapq.heappush(heap, (rng.random(), i, [i]))
        t, j, _ = heapq.heappop(heap)
        slot = (j * 7919) % SLOTS
        acc[slot] = acc.get(slot, 0.0) + t
    xs = numpy.random.default_rng(1).random(ARRAY)
    numpy.cumsum(numpy.sort(xs))
    numpy.argsort(xs[::3])
    return time.perf_counter() - t0


def at_reference_speed(walls: Sequence[float],
                       refs: Sequence[float]) -> List[float]:
    """Each wall rescaled by the mean of the reference timings just
    before and just after it (``refs`` has one more entry than
    ``walls``)."""
    if len(refs) != len(walls) + 1:
        raise ValueError("need one reference timing around each wall")
    return [w * REFERENCE_S / ((a + b) / 2.0)
            for w, a, b in zip(walls, refs, refs[1:])]


class Reference:
    """The reference child process; calling the object times one
    :func:`work` there.  Every wait on the child is bounded."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        if not self._sel.select(timeout=TIMEOUT_S):
            raise RuntimeError(
                f"reference process did not answer within {TIMEOUT_S:.0f}s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference process exited")
        return float(line)

    def close(self) -> None:
        """Close the child's input, so it exits; kill it if it overruns."""
        self._sel.close()
        try:
            self.proc.stdin.close()
        except OSError:  # the child is already gone
            pass
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def main() -> None:
    # Nothing in this process outlives one run of work(), so the
    # collector would only add pauses.
    gc.disable()
    work()  # the first run pays NumPy's import
    for _ in sys.stdin:
        print(work(), flush=True)


if __name__ == "__main__":
    main()
