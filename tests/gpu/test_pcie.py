"""Tests for the PCIe link."""

import pytest

from repro.gpu import A100_80GB, Direction, Link

H2D, D2H = Direction.H2D, Direction.D2H


def make_engine(bandwidth=1e9, penalty=0.8, restore_first=True, min_latency=0.0):
    return Link(bandwidth, penalty, restore_first, min_latency)


class TestBasics:
    def test_duration_is_bytes_over_bandwidth(self):
        eng = make_engine()
        rec = eng.transfer(0.0, 1e9, H2D)
        assert rec.duration == pytest.approx(1.0)
        assert rec.start_time == 0.0

    def test_zero_bytes_is_instant(self):
        eng = make_engine()
        rec = eng.transfer(0.0, 0, H2D)
        assert rec.duration == 0.0

    def test_min_latency_added(self):
        eng = make_engine(min_latency=1e-3)
        rec = eng.transfer(0.0, 1e6, H2D)
        assert rec.duration == pytest.approx(1e-3 + 1e-3)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            make_engine().transfer(0.0, -5, H2D)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            make_engine(bandwidth=0)

    def test_invalid_penalty_rejected(self):
        with pytest.raises(ValueError):
            make_engine(penalty=1.5)

    def test_built_from_the_spec(self):
        eng = Link.pcie(A100_80GB, num_gpus=2, prioritize_retrieval=False)
        bandwidth = A100_80GB.pcie_bandwidth * 2
        assert eng.bandwidth == bandwidth
        assert eng.penalty == A100_80GB.pcie_duplex_penalty
        assert not eng.restore_first


class TestSerialization:
    def test_same_direction_transfers_queue(self):
        eng = make_engine()
        first = eng.transfer(0.0, 1e9, H2D)
        second = eng.transfer(0.0, 1e9, H2D)
        assert second.start_time == pytest.approx(first.end_time)
        assert second.start_time - second.enqueue_time == pytest.approx(1.0)

    def test_later_enqueue_after_drain_starts_immediately(self):
        eng = make_engine()
        eng.transfer(0.0, 1e9, H2D)
        rec = eng.transfer(5.0, 1e9, H2D)
        assert rec.start_time == 5.0


class TestDuplexContention:
    def test_overlapping_directions_slow_down(self):
        eng = make_engine(restore_first=False)
        eng.transfer(0.0, 2e9, H2D)  # H2D busy until t=2
        rec = eng.transfer(0.0, 1e9, D2H)  # overlaps -> 0.8 GB/s
        assert rec.duration == pytest.approx(1.0 / 0.8)

    def test_non_overlapping_full_speed(self):
        eng = make_engine(restore_first=False)
        eng.transfer(0.0, 1e9, H2D)
        rec = eng.transfer(2.0, 1e9, D2H)  # H2D drained at t=1
        assert rec.duration == pytest.approx(1.0)


class TestRetrievalPriority:
    def test_eviction_waits_for_retrieval(self):
        """§5 optimisation: swap-out defers to in-flight swap-in."""
        eng = make_engine(restore_first=True)
        swap_in = eng.transfer(0.0, 2e9, H2D)
        rec = eng.transfer(0.0, 1e9, D2H)
        assert rec.start_time == pytest.approx(swap_in.end_time)
        assert rec.duration == pytest.approx(1.0)  # no duplex penalty paid

    def test_retrieval_never_waits_for_eviction(self):
        eng = make_engine(restore_first=True)
        eng.transfer(0.0, 2e9, D2H)
        rec = eng.transfer(0.0, 1e9, H2D)
        assert rec.start_time == 0.0
        # Swap-in pays the duplex penalty (eviction already in flight).
        assert rec.duration == pytest.approx(1.0 / 0.8)

    def test_disabled_priority_overlaps(self):
        eng = make_engine(restore_first=False)
        eng.transfer(0.0, 2e9, H2D)
        rec = eng.transfer(0.0, 1e9, D2H)
        assert rec.start_time == 0.0


class TestAccounting:
    def test_bytes_moved_tracked_per_direction(self):
        eng = make_engine()
        eng.transfer(0.0, 100, H2D)
        eng.transfer(0.0, 50, H2D)
        eng.transfer(0.0, 25, D2H)
        assert eng.bytes_moved[H2D] == 150
        assert eng.bytes_moved[D2H] == 25

    def test_history_and_last(self):
        eng = make_engine()
        assert eng.history == []
        eng.transfer(0.0, 100, H2D)
        eng.transfer(0.0, 200, D2H)
        assert [r.direction for r in eng.history] == [H2D, D2H]

    def test_idle_at(self):
        """A transfer enqueued while the other direction is busy waits for
        it; once the link has drained, one starts at once."""
        def d2h_after_one_second_h2d(now):
            eng = make_engine()
            eng.transfer(0.0, 1e9, H2D)
            return eng.transfer(now, 1e9, D2H)

        assert d2h_after_one_second_h2d(0.5).start_time == 1.0
        idle = d2h_after_one_second_h2d(1.0)
        assert idle.start_time == 1.0
        assert idle.duration == pytest.approx(1.0)


class TestChunkAccounting:
    """Coalesced transfers: one DMA operation, N chunks of accounting."""

    def test_num_chunks_recorded_and_counted(self):
        from repro.obs import Tracer

        eng = make_engine()
        eng.tracer = Tracer()
        eng.transfer(0.0, 400, H2D, 4)
        eng.transfer(0.0, 100, D2H)  # defaults to one chunk
        assert eng.history[0].num_chunks == 4
        assert eng.history[1].num_chunks == 1
        assert eng.tracer.counter("pcie.h2d_chunks") == 4
        assert eng.tracer.counter("pcie.h2d_transfers") == 1
        assert eng.tracer.counter("pcie.d2h_chunks") == 1

    def test_coalesced_transfer_pays_latency_once(self):
        eng = make_engine(min_latency=1e-3)
        one = eng.transfer(0.0, 400, H2D, 4)
        per = [
            make_engine(min_latency=1e-3).transfer(0.0, 100, H2D) for _ in range(4)
        ]
        assert one.duration < sum(r.duration for r in per)

    def test_invalid_num_chunks_rejected(self):
        with pytest.raises(ValueError):
            make_engine().transfer(0.0, 100, H2D, 0)
