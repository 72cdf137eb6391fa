"""Property-based tests for the transfer link, on both of its instances:
the symmetric PCIe link and the asymmetric NVMe drive."""

from hypothesis import given, settings, strategies as st

from repro.gpu import Link

#: One link per name, zero latency; ``restore_first`` is the argument.
LINKS = (
    lambda restore_first: Link("pcie", 1e9, 1e9, 0.81, restore_first, 0.0),
    lambda restore_first: Link("nvme", 3.2e9, 1.8e9, 0.70, restore_first, 0.0),
)

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
    """Replay ``ops`` on each link; yields ``(link, records)``."""
    for make in LINKS:
        link = make(restore_first)
        now = 0.0
        records = []
        for offset, num_bytes, restore in ops:
            now += offset  # enqueue times are non-decreasing
            direction = link.evict.opposite if restore else link.evict
            records.append(link.transfer(now, num_bytes, direction))
        yield link, records


@settings(max_examples=100, deadline=None)
@given(ops=transfer_ops)
def test_same_direction_transfers_never_overlap(ops):
    for link, records in run_ops(ops):
        for direction in link.bytes_moved:
            stream = [r for r in records if r.direction is direction]
            for a, b in zip(stream, stream[1:]):
                assert b.start_time >= a.end_time - 1e-9


@settings(max_examples=100, deadline=None)
@given(ops=transfer_ops)
def test_transfers_never_start_before_enqueue(ops):
    for _, records in run_ops(ops):
        for record in records:
            assert record.start_time >= record.enqueue_time - 1e-9
            assert record.end_time >= record.start_time


@settings(max_examples=100, deadline=None)
@given(ops=transfer_ops)
def test_bytes_accounting_is_exact(ops):
    for link, _ in run_ops(ops):
        for direction in link.bytes_moved:
            restore = direction is not link.evict
            expected = sum(b for _, b, r in ops if r is restore)
            assert link.bytes_moved[direction] == expected


@settings(max_examples=100, deadline=None)
@given(ops=transfer_ops)
def test_duration_never_beats_full_bandwidth(ops):
    """No transfer can finish faster than bytes / peak bandwidth."""
    for link, records in run_ops(ops):
        for record in records:
            peak = link.bandwidth[record.direction]
            assert record.duration >= record.num_bytes / peak - 1e-9


@settings(max_examples=100, deadline=None)
@given(ops=transfer_ops)
def test_swap_ins_never_queue_behind_evictions(ops):
    """With restore-first scheduling, a restore (swap-in, disk read)
    starts as soon as its own direction's queue allows — it never waits
    on the eviction queue.  (Evictions, by contrast, may be deferred
    behind in-flight restores.)"""
    for link, records in run_ops(ops, restore_first=True):
        prev_end = 0.0
        for record in records:
            if record.direction is not link.evict:
                expected_start = max(record.enqueue_time, prev_end)
                assert abs(record.start_time - expected_start) < 1e-9
                prev_end = record.end_time
