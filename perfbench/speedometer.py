"""Host-speed reference: time a fixed chunk of Python work on the workload's CPU.

On a shared box the host's speed drifts by 20–50 % within minutes, and
that drift moves the timings of a run together.  The benchmark pins the
process that runs the workload (for twin-serve, the server) to one CPU,
:func:`bench_cpu`.  A speedometer process, pinned to the same CPU, runs a
fixed chunk of interpreter work about 100 times a second and records the
chunk's own CPU time (``time.thread_time``), 10 % of that CPU.  The
chunk therefore runs on the same physical core as the workload, a few
milliseconds apart, and its CPU time does not count the time it waits
while the workload holds the CPU: the workload's load does not enter it.
:meth:`Speedometer.scaled` divides a measured interval by the host's
slowness over that interval — the mean chunk time then, over
:data:`REF_CHUNK_S` — which turns host seconds into seconds at a fixed
reference speed.  The raw host seconds are reported beside the scaled ones.

Run as a script, this module is the speedometer itself: it samples until
its standard input closes, then prints the samples as JSON.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
from time import monotonic, thread_time
from typing import List, Tuple

#: chunk CPU time at the reference host speed (the median on the 2-vCPU box
#: the benchmark was tuned on); scaled seconds are host seconds at this speed
REF_CHUNK_S = 0.00088
#: share of the pinned CPU the speedometer uses: after each chunk it sleeps
#: for (1 / DUTY - 1) times the chunk's length, so the share stays the same
#: when the host slows down
DUTY = 0.1
#: fewest samples a slowness estimate averages over
MIN_SAMPLES = 5


def bench_cpu() -> int:
    """The CPU the workload and the speedometer are pinned to."""
    return min(os.sched_getaffinity(0))


def _chunk() -> None:
    table = {}
    acc = 0.0
    for i in range(10_000):
        acc += i * 0.5
        table[i & 255] = acc


def _sample_until_stdin_closes(cpu: int) -> List[Tuple[float, float]]:
    os.sched_setaffinity(0, {cpu})
    samples = []
    while True:
        t0 = monotonic()
        c0 = thread_time()
        _chunk()
        c1 = thread_time()
        t1 = monotonic()
        samples.append((t0, c1 - c0))
        readable, _, _ = select.select([sys.stdin], [], [],
                                       (1.0 / DUTY - 1.0) * (t1 - t0))
        if readable:   # EOF: the benchmark is done
            return samples


class Speedometer:
    """The speedometer process, and the slowness it measured."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(cpu)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.samples: List[Tuple[float, float]] = []

    def stop(self) -> None:
        """End the process and collect its samples."""
        out, _ = self.proc.communicate(input="", timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError("speedometer failed")
        self.samples = [tuple(s) for s in json.loads(out)]

    def slowness(self, start: float, end: float) -> float:
        """Mean chunk time over ``[start, end]`` ÷ the reference chunk time.

        A short interval borrows the samples nearest its middle until it
        has :data:`MIN_SAMPLES`.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2.0
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        return statistics.mean(inside) / REF_CHUNK_S

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` host seconds, in seconds at the reference speed."""
        return (end - start) / self.slowness(start, end)


if __name__ == "__main__":
    print(json.dumps(_sample_until_stdin_closes(int(sys.argv[1]))))
