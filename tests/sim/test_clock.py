"""Tests for the simulated clock."""

import pytest

from repro.sim import Clock


def test_starts_at_zero():
    assert Clock().now == 0.0


def test_starts_at_custom_time():
    assert Clock(5.0).now == 5.0


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        Clock(-1.0)


def test_advance_forward():
    clock = Clock()
    clock.advance_to(3.5)
    assert clock.now == 3.5
    clock.advance_to(3.5)  # advancing to the same time is allowed
    assert clock.now == 3.5


def test_advance_backwards_rejected():
    clock = Clock(10.0)
    with pytest.raises(ValueError):
        clock.advance_to(9.999)


def test_repr_mentions_time():
    assert "2.5" in repr(Clock(2.5))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_time_rejected(bad):
    """NaN fails every compare, so a ``time < now`` test let it through
    and left the clock at NaN, after which every past-time check passed."""
    clock = Clock(2.0)
    with pytest.raises(ValueError, match="non-finite"):
        clock.advance_to(bad)
    assert clock.now == 2.0
    with pytest.raises(ValueError):
        Clock(bad)
