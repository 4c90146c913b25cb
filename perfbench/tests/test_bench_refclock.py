"""The reference clock samples for the time asked and leaves GC as it was."""

import gc

import pytest

from refclock import REFERENCE_RATE, ReferenceClock


def test_sample_runs_the_kernel_for_about_the_time_asked():
    clock = ReferenceClock()
    clock.sample(0.05)
    clock.sample(0.0)  # still runs the kernel once
    assert clock.runs >= 2
    assert clock.seconds >= 0.05
    assert clock.speed() == clock.runs / clock.seconds / REFERENCE_RATE


def test_sample_restores_the_collector_state():
    clock = ReferenceClock()
    assert gc.isenabled()
    clock.sample(0.001)
    assert gc.isenabled()
    gc.disable()
    try:
        clock.sample(0.001)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_local_speeds_average_the_samples_inside_the_window():
    clock = ReferenceClock()
    clock.samples = [(0.0, 10, 0.01), (0.5, 30, 0.01), (5.0, 40, 0.04)]
    rate = REFERENCE_RATE
    assert clock.local_speeds(1.0) == pytest.approx(
        [40 / 0.02 / rate, 40 / 0.02 / rate, 1000 / rate])
    assert clock.local_speeds(10.0) == pytest.approx([80 / 0.06 / rate] * 3)
