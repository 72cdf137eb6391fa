"""Property-based tests for the PCIe transfer link."""

from hypothesis import given, settings, strategies as st

from repro.gpu import Direction, Link

H2D, D2H = Direction.H2D, Direction.D2H

transfer_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),   # enqueue time offset
        st.floats(min_value=0.0, max_value=1e9),     # bytes
        st.booleans(),                               # restore (else evict)
    ),
    min_size=1,
    max_size=40,
)


def run_ops(ops, restore_first=True):
    """Replay ``ops`` on a zero-latency link; returns ``(link, records)``."""
    link = Link(1e9, 0.81, restore_first, 0.0)
    now = 0.0
    records = []
    for offset, num_bytes, restore in ops:
        now += offset  # enqueue times are non-decreasing
        records.append(link.transfer(now, num_bytes, H2D if restore else D2H))
    return link, records


@settings(max_examples=100, deadline=None)
@given(ops=transfer_ops)
def test_same_direction_transfers_never_overlap(ops):
    link, records = run_ops(ops)
    for direction in link.bytes_moved:
        stream = [r for r in records if r.direction is direction]
        for a, b in zip(stream, stream[1:]):
            assert b.start_time >= a.end_time - 1e-9


@settings(max_examples=100, deadline=None)
@given(ops=transfer_ops)
def test_transfers_never_start_before_enqueue(ops):
    _, records = run_ops(ops)
    for record in records:
        assert record.start_time >= record.enqueue_time - 1e-9
        assert record.end_time >= record.start_time


@settings(max_examples=100, deadline=None)
@given(ops=transfer_ops)
def test_bytes_accounting_is_exact(ops):
    link, _ = run_ops(ops)
    for direction in link.bytes_moved:
        restore = direction is H2D
        expected = sum(b for _, b, r in ops if r is restore)
        assert link.bytes_moved[direction] == expected


@settings(max_examples=100, deadline=None)
@given(ops=transfer_ops)
def test_duration_never_beats_full_bandwidth(ops):
    """No transfer can finish faster than bytes / peak bandwidth."""
    link, records = run_ops(ops)
    for record in records:
        assert record.duration >= record.num_bytes / link.bandwidth - 1e-9


@settings(max_examples=100, deadline=None)
@given(ops=transfer_ops)
def test_swap_ins_never_queue_behind_evictions(ops):
    """With restore-first scheduling, a swap-in starts as soon as its own
    direction's queue allows — it never waits on the eviction queue.
    (Evictions, by contrast, may be deferred behind in-flight swap-ins.)"""
    _, records = run_ops(ops, restore_first=True)
    prev_end = 0.0
    for record in records:
        if record.direction is H2D:
            expected_start = max(record.enqueue_time, prev_end)
            assert abs(record.start_time - expected_start) < 1e-9
            prev_end = record.end_time
