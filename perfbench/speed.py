"""How fast the CPU runs while a child works.

On a shared virtual machine the host changes the CPU's speed in phases
of seconds (see README.md), so CPU time alone measures the host as much
as the program.  `Sampler` times a short slice of a fixed pure-Python
kernel every SAMPLE_EVERY_S of the process's CPU time, from a SIGPROF
handler, so that the slices interleave with whatever the process runs.
A stretch of CPU time, less the slices' own time, times the mean speed
of the slices inside it, reads as CPU seconds at full speed on the
machine the benchmark was built on.

Once a process CPU timer has been armed, Linux serves the process CPU
clock (`time.process_time`) in whole scheduler ticks, 4 ms here, for the
rest of the process.  So every CPU time in a child is read from
`cpu_clock`, the main thread's CPU clock, which stays exact.

The module is imported before `fansq`, so it must stay small.
"""

import math
import signal
import time

SAMPLE_EVERY_S = 0.01  # of process CPU time
SLICE_STEPS = 4000
# CPU time of a slice at full speed on the machine the benchmark was built
# on (2-core VM, Python 3.11.7): 0.0370 (the median of 300 interleaved
# pairs) of a 100,000-step run that builds its own table, whose least
# time there was 7.2 ms
SLICE_FULL_SPEED_S = 0.0370 * 0.0072

_TABLE = [math.log(i + 1.0) for i in range(4000)]

cpu_clock = time.thread_time


def _steps(tab: list, count: int) -> float:
    """Fixed pure-Python work in the style of the series loops."""
    acc = 0.0
    for n in range(count):
        acc += math.exp(tab[n % 4000] - 3.0) if n % 2 == 0 else 0.0
    return acc


class Sampler:
    """Times a kernel slice every SAMPLE_EVERY_S of process CPU time."""

    def __init__(self) -> None:
        # (`cpu_clock` when the slice started, the slice's CPU time)
        self.samples: list[tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        c0 = cpu_clock()
        _steps(_TABLE, SLICE_STEPS)
        self.samples.append((c0, cpu_clock() - c0))

    def full_speed_cpu(self, start: float, end: float, margin: float = 0.0) -> float:
        """CPU seconds at full speed of the work between `cpu_clock` times
        `start` and `end`, the slices taken in between left out.

        The speed is the mean over the slices from `margin` before
        `start` to `margin` after `end`.  It is a mean of speeds, not of
        slice times: slices come at even steps of CPU time, and the work
        done in a step is proportional to the speed during it.
        """
        near = [t for c0, t in self.samples if start - margin <= c0 < end + margin]
        if not near:
            raise RuntimeError(f"no speed sample near CPU times {start} to {end}")
        own = sum(t for c0, t in self.samples if start <= c0 < end)
        speed = sum(SLICE_FULL_SPEED_S / t for t in near) / len(near)
        return (end - start - own) * speed
