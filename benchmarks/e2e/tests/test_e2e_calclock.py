"""The calibrated clock, driven by a fake machine."""

import pytest

from e2e.calclock import (CAL_REF_S, CAL_REPEATS, RECAL_AFTER_S,
                          CalibratedClock, reference_work)


class FakeMachine:
    """A timer whose work takes ``slowdown`` times its nominal duration."""

    def __init__(self, slowdown: float = 1.0):
        self.slowdown = slowdown
        self.now = 100.0

    def clock(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds * self.slowdown

    def reference(self) -> None:
        self.work(CAL_REF_S / CAL_REPEATS)

    def make_clock(self) -> CalibratedClock:
        return CalibratedClock(wall=self.clock, cpu=self.clock,
                               reference=self.reference)


def timed(machine: FakeMachine, durations) -> list[tuple[float, float]]:
    clock = machine.make_clock()
    samples = [clock.time_call(machine.work, seconds)[1]
               for seconds in durations]
    clock.close()
    return [clock.calibrated(sample) for sample in samples]


def test_uniform_slowdown_leaves_reported_time_unchanged():
    durations = [0.01, 0.2, 0.05, 0.3, 0.002]
    fast = timed(FakeMachine(1.0), durations)
    slow = timed(FakeMachine(2.0), durations)
    for (wall, cpu), (slow_wall, slow_cpu), nominal in zip(fast, slow,
                                                          durations):
        assert wall == pytest.approx(nominal)
        assert slow_wall == pytest.approx(nominal)
        assert cpu == pytest.approx(slow_cpu)


def test_raw_time_does_see_the_slowdown():
    machine = FakeMachine(2.0)
    clock = machine.make_clock()
    _, sample = clock.time_call(machine.work, 0.01)
    assert sample.wall == pytest.approx(0.02)
    assert sample.started == pytest.approx(100.0 + 2 * CAL_REF_S)


def test_recalibrates_after_enough_timed_work():
    machine = FakeMachine()
    clock = machine.make_clock()
    chunks = [clock.time_call(machine.work, RECAL_AFTER_S / 2)[1].chunk
              for _ in range(5)]
    # Two half-budget calls fill a chunk; the third opens the next one.
    assert chunks == [0, 0, 1, 1, 2]
    clock.close()
    assert len(clock.calibrations) == 4
    clock.close()       # nothing timed since: no further calibration
    assert len(clock.calibrations) == 4


def test_a_speed_change_is_split_between_the_bracketing_calibrations():
    machine = FakeMachine(1.0)
    clock = machine.make_clock()
    _, sample = clock.time_call(machine.work, 0.1)
    machine.slowdown = 3.0          # the machine slows before the bracket
    clock.close()
    wall_factor, _ = clock.factors(sample)
    assert wall_factor == pytest.approx(1 / 2.0)   # mean of 1x and 3x


def test_speed_spread_ignores_a_single_stalled_calibration():
    machine = FakeMachine()
    clock = machine.make_clock()
    for index in range(40):
        machine.slowdown = 50.0 if index == 7 else 1.0
        clock.calibrate()
    assert clock.speed_spread() == pytest.approx(1.0)


def test_the_reference_computation_is_deterministic():
    assert reference_work() == reference_work() > 0
