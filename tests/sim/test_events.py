"""Tests for the discrete-event loop."""

import pytest

from repro.sim import EventLoop, SimulationError


def test_runs_events_in_time_order():
    loop = EventLoop()
    order = []
    loop.schedule(2.0, order.append, "b")
    loop.schedule(1.0, order.append, "a")
    loop.schedule(3.0, order.append, "c")
    loop.run()
    assert order == ["a", "b", "c"]
    assert loop.now == 3.0


def test_same_time_events_run_fifo():
    loop = EventLoop()
    order = []
    for tag in "abcde":
        loop.schedule(1.0, order.append, tag)
    loop.run()
    assert order == list("abcde")


def test_callbacks_can_schedule_more_events():
    loop = EventLoop()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            loop.schedule_after(1.0, chain, n + 1)

    loop.schedule(0.0, chain, 1)
    loop.run()
    assert seen == [1, 2, 3, 4, 5]
    assert loop.now == 4.0


def test_run_until_stops_and_advances_clock():
    loop = EventLoop()
    seen = []
    loop.schedule(1.0, seen.append, 1)
    loop.schedule(5.0, seen.append, 5)
    loop.run(until=2.0)
    assert seen == [1]
    assert loop.now == 2.0
    loop.run()
    assert seen == [1, 5]


def test_scheduling_in_the_past_rejected():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.schedule(0.5, lambda: None)


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule_after(-0.1, lambda: None)


def test_max_events_guard():
    loop = EventLoop()

    def forever():
        loop.schedule_after(0.0, forever)

    loop.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        loop.run(max_events=100)


def test_pending_and_dispatched_counters():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.schedule(2.0, lambda: None)
    assert loop.pending == 2
    dispatched = loop.run()
    assert dispatched == 2
    assert loop.dispatched == 2
    assert loop.pending == 0


def test_run_is_not_reentrant():
    loop = EventLoop()
    errors = []

    def reenter():
        try:
            loop.run()
        except SimulationError as exc:
            errors.append(exc)

    loop.schedule(0.0, reenter)
    loop.run()
    assert len(errors) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_time_rejected(bad):
    """Scheduling NaN, then 1.0, then 0.5 used to dispatch the NaN event
    first with ``now`` = NaN, then 0.5 before 1.0, and raise nothing."""
    loop = EventLoop()
    with pytest.raises(SimulationError, match="non-finite"):
        loop.schedule(bad, lambda: None)
    order = []
    loop.schedule(1.0, order.append, 1.0)
    loop.schedule(0.5, order.append, 0.5)
    loop.run()
    assert order == [0.5, 1.0]
    assert loop.now == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_delay_rejected(bad):
    """``schedule_after(nan)`` at ``now`` = 2.0 used to leave the clock at
    NaN once the event ran."""
    loop = EventLoop()
    loop.schedule(2.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.schedule_after(bad, lambda: None)
    loop.run()
    assert loop.now == 2.0
