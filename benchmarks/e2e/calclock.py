"""A clock that reports time in *reference-machine* seconds.

On a shared sandbox the machine's speed drifts by tens of percent within
seconds, so raw wall-clock (and CPU time, which inflates with it) cannot
be compared between two runs of the same code.  The cure is to measure
the machine while measuring the program: a fixed pure-Python reference
computation runs before the first timed call and again whenever
:data:`RECAL_AFTER_S` of timed work has accumulated, and every timed call
is scaled by ``CAL_REF_S / mean(bracketing calibrations)``.  A machine
that runs everything twice as slowly doubles both numbers and leaves the
reported time unchanged.

The reference mixes tuple hashing, set inserts and dict probes because
that is what the engine under test spends its time on; a float loop would
track a different part of the machine.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

#: What one reference computation costs on the reference machine.
CAL_REF_S = 0.007
#: Timed work after which the next timed call is preceded by a calibration.
RECAL_AFTER_S = 0.15
#: A calibration runs the reference this many times and keeps the median,
#: so that one descheduling hit cannot triple a calibration.
CAL_REPEATS = 3


def _reference_pairs(count: int = 6000, nodes: int = 900) -> list[tuple[int, int]]:
    state = 12345
    pairs = []
    for _ in range(count):
        state = (state * 1103515245 + 12345) % 2147483648
        src = (state >> 8) % nodes      # the low bits of an LCG cycle
        state = (state * 1103515245 + 12345) % 2147483648
        pairs.append((src, (state >> 8) % nodes))
    return pairs


_PAIRS = _reference_pairs()


def reference_work() -> int:
    """The fixed computation whose duration measures the machine."""
    seen = set()
    index: dict[int, list[int]] = {}
    for src, trg in _PAIRS:
        seen.add((trg, src))
        index.setdefault(src, []).append(trg)
    hits = 0
    for src, trg in _PAIRS:
        if (src, trg) in seen:
            hits += 1
        hits += len(index.get(trg, ()))
    return hits


@dataclass
class Calibration:
    """One run of the reference computation."""

    at: float
    wall: float
    cpu: float


@dataclass
class Sample:
    """Raw timing of one timed call; ``chunk`` names its calibrations.

    The call ran after ``calibrations[chunk]`` and before
    ``calibrations[chunk + 1]`` (which exists once the clock was
    :meth:`~CalibratedClock.close`\\ d or recalibrated).
    """

    started: float
    wall: float
    cpu: float
    chunk: int


class CalibratedClock:
    """Times calls and converts them to reference-machine time."""

    def __init__(self, wall=time.perf_counter, cpu=time.process_time,
                 reference=reference_work):
        self._wall = wall
        self._cpu = cpu
        self._reference = reference
        self.calibrations: list[Calibration] = []
        self._since_calibration = 0.0

    def calibrate(self) -> Calibration:
        started = self._wall()
        walls, cpus = [], []
        for _ in range(CAL_REPEATS):
            wall_started = self._wall()
            cpu_started = self._cpu()
            self._reference()
            cpus.append(self._cpu() - cpu_started)
            walls.append(self._wall() - wall_started)
        calibration = Calibration(
            at=started, wall=CAL_REPEATS * statistics.median(walls),
            cpu=CAL_REPEATS * statistics.median(cpus))
        self.calibrations.append(calibration)
        self._since_calibration = 0.0
        return calibration

    def time_call(self, function, *args):
        """Run ``function(*args)``; returns ``(result, Sample)``.

        Exceptions propagate: callers that count failures catch them
        inside ``function``.
        """
        if not self.calibrations or self._since_calibration >= RECAL_AFTER_S:
            self.calibrate()
        chunk = len(self.calibrations) - 1
        wall_started = self._wall()
        cpu_started = self._cpu()
        result = function(*args)
        cpu = self._cpu() - cpu_started
        wall = self._wall() - wall_started
        self._since_calibration += wall
        return result, Sample(started=wall_started, wall=wall, cpu=cpu,
                              chunk=chunk)

    def close(self) -> None:
        """Bracket the last chunk (call before reading calibrated times)."""
        if self.calibrations and self._since_calibration > 0.0:
            self.calibrate()

    def factors(self, sample: Sample) -> tuple[float, float]:
        """``(wall, cpu)`` multipliers that calibrate ``sample``."""
        bracket = self.calibrations[sample.chunk:sample.chunk + 2]
        wall = sum(c.wall for c in bracket) / len(bracket)
        cpu = sum(c.cpu for c in bracket) / len(bracket)
        return CAL_REF_S / wall, CAL_REF_S / cpu

    def calibrated(self, sample: Sample) -> tuple[float, float]:
        """``(wall, cpu)`` seconds of ``sample`` on the reference machine."""
        wall_factor, cpu_factor = self.factors(sample)
        return sample.wall * wall_factor, sample.cpu * cpu_factor

    def speed_spread(self) -> float:
        """How much the machine's speed moved: slow over fast calibrations.

        The 95th over the 5th percentile rather than max over min: a run
        makes a hundred calibrations, and one of them meeting a scheduler
        stall says nothing about the other ninety-nine.
        """
        walls = sorted(c.wall for c in self.calibrations)
        if not walls:
            return 1.0
        last = len(walls) - 1
        return walls[round(0.95 * last)] / walls[round(0.05 * last)]
