"""Tests for the event loop's simulated clock (``EventLoop.now``)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import EventLoop, SimulationError


def test_starts_at_zero():
    assert EventLoop().now == 0.0


def test_advance_forward():
    loop = EventLoop()
    loop.run(until=3.5)
    assert loop.now == 3.5
    loop.run(until=3.5)  # running to the same time is allowed
    assert loop.now == 3.5


def test_advance_backwards_rejected():
    loop = EventLoop()
    loop.run(until=10.0)
    with pytest.raises(SimulationError, match="before now"):
        loop.schedule(9.999, lambda: None)
    loop.run(until=9.999)  # a horizon in the past leaves the clock alone
    assert loop.now == 10.0


def test_repr_mentions_time():
    loop = EventLoop()
    loop.run(until=2.5)
    assert "2.5" in repr(loop)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_time_rejected(bad):
    """A non-finite horizon is refused before anything dispatches: NaN
    fails every compare, so ``time > until`` would never stop the loop
    and every event would run."""
    loop = EventLoop()
    seen = []
    for time in (1.0, 5.0, 50.0):
        loop.schedule(time, seen.append, time)
    loop.run(until=2.0)
    with pytest.raises(SimulationError, match="non-finite"):
        loop.run(until=bad)
    assert seen == [1.0]
    assert loop.now == 2.0
    assert loop.pending == 2


_OFFSETS = st.one_of(
    st.floats(min_value=-5.0, max_value=10.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_OPS = st.lists(
    st.tuples(st.sampled_from(["schedule", "after", "run", "drain"]), _OFFSETS),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_random_walk_keeps_the_clock_monotone(ops):
    """Random ``schedule``, ``schedule_after`` and ``run(until=)`` calls:
    ``now`` never decreases, every callback sees ``now`` equal to its
    event's time, events dispatch in ``(time, insertion)`` order, and
    every past or non-finite time is refused without touching the loop."""
    loop = EventLoop()
    pending = []  # (time, seq) the model expects to dispatch
    dispatched = []
    seq = 0

    def fire(time, tag):
        assert loop.now == time
        assert not dispatched or dispatched[-1][0] <= time
        dispatched.append((time, tag))

    for op, offset in ops:
        before = loop.now
        if op in ("schedule", "after"):
            time = before + offset
            if op == "schedule":
                method, when = loop.schedule, time
                valid = math.isfinite(time) and time >= before
            else:
                method, when = loop.schedule_after, offset
                valid = math.isfinite(offset) and offset >= 0.0
            if valid:
                method(when, fire, time, seq)
                pending.append((time, seq))
                seq += 1
            else:
                with pytest.raises(SimulationError):
                    method(when, fire, time, seq)
        else:
            until = None if op == "drain" else before + offset
            if until is not None and not math.isfinite(until):
                count = len(dispatched)
                with pytest.raises(SimulationError, match="non-finite"):
                    loop.run(until=until)
                assert len(dispatched) == count
            else:
                due = sorted(
                    p for p in pending if until is None or p[0] <= until
                )
                start = len(dispatched)
                loop.run(until=until)
                assert dispatched[start:] == due
                pending = [p for p in pending if p not in due]
                horizon = due[-1][0] if due else before
                if until is not None:
                    horizon = max(horizon, until)
                assert loop.now == max(before, horizon)
        assert loop.now >= before
        assert loop.pending == len(pending)
