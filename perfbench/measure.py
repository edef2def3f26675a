"""Percentiles, the step-cap guard and the speed gauge shared by the workloads."""
from __future__ import annotations

import math
import resource
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

# percentiles the tail rule chooses from, lowest first
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
MIN_TAIL_SAMPLES = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(1, _rank(p, len(ordered))) - 1]


def _rank(p: float, n: int) -> int:
    # exact, so that 99.9% of 10000 is 9990 and not 9991
    return math.ceil(Fraction(str(p)) * n / 100)


def tail_percentile(n: int):
    """The highest ladder percentile with at least ten samples beyond it, or
    None when n is under forty, where only the median is reported."""
    if n < 40:
        return None
    best = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count():
    """Threads of this process, from /proc where it exists."""
    status = Path("/proc/self/status")
    if not status.exists():
        return None
    for line in status.read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


class StepCapExceeded(Exception):
    """An evaluation query ran past its step cap."""

    def __init__(self, steps: int, cap: int):
        super().__init__(f"query ran {steps} steps, past its cap of {cap}")
        self.steps = steps
        self.cap = cap


class StepCapGuard:
    """Stops an evaluation query once it runs past its step cap.

    `HiemAgent.run_episode` runs options until one reports the episode done;
    an option that ends because its sub-goal was reached does not test the
    episode cap, so a policy that keeps re-choosing an achieved sub-goal
    never stops.  Inside a `with` block the guard wraps `run_option` on the
    agent class and raises `StepCapExceeded` when an option returns a step
    count past the cap; on exit it puts the method back.
    """

    def __init__(self, agent_cls, cap: int):
        self.agent_cls = agent_cls
        self.cap = cap
        self._original = None

    def __enter__(self):
        self._original = original = self.agent_cls.run_option
        cap = self.cap

        def run_option(agent, *args, **kwargs):
            out = original(agent, *args, **kwargs)
            # run_option returns (trace, state, obs, atomic_steps_now, done, success)
            if out[3] > cap:
                raise StepCapExceeded(out[3], cap)
            return out

        self.agent_cls.run_option = run_option
        return self

    def __exit__(self, *exc):
        self.agent_cls.run_option = self._original
        return False


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreted Python and small NumPy
    operations that uses no code of the program under test."""
    t0 = time.perf_counter()
    total = 0
    for k in range(120_000):
        total += k * k % 7
    a = np.full((32, 64), 0.5)
    w = np.full((64, 64), 0.01)
    for _ in range(800):
        a = np.maximum(a @ w, 0.0) + 0.5
    return time.perf_counter() - t0


class SpeedGauge:
    """Tracks the machine's speed with the calibration kernel, run before
    the first timed block and after each one.

    On the 2-core virtual machine of the reference figures, identical work
    takes up to a quarter longer in slow phases lasting tens of seconds, so
    a wall time taken in a slow phase and one taken in a fast phase differ
    though the program did not change.  `factor()` returns, for the block
    that just ended, REFERENCE_S over the mean kernel time on either side
    of it; a wall time times that factor is the time the block would have
    taken on a machine where the kernel takes REFERENCE_S.
    """

    REFERENCE_S = 0.025

    def __init__(self):
        self.kernel_s = [calibration_kernel()]

    def factor(self) -> float:
        self.kernel_s.append(calibration_kernel())
        return 2.0 * self.REFERENCE_S / (self.kernel_s[-2] + self.kernel_s[-1])
