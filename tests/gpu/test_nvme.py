"""NVMe link tests: asymmetric bandwidth, queueing, mixed-queue
contention, reads-over-writes prioritization, and coalescing accounting."""

import pytest

from repro.gpu import A100_80GB, Direction, Link
from repro.obs import Tracer

READ, WRITE = Direction.READ, Direction.WRITE
READ_BW = 3.2e9
WRITE_BW = 1.8e9
LAT = 80e-6


def make_engine(
    read_bandwidth=READ_BW, write_bandwidth=WRITE_BW, penalty=0.70, restore_first=True
):
    return Link("nvme", read_bandwidth, write_bandwidth, penalty, restore_first, LAT)


class TestBasics:
    def test_idle_transfer_duration(self):
        engine = make_engine()
        record = engine.transfer(0.0, 32e6, READ)
        assert record.start_time == 0.0
        assert record.duration == pytest.approx(LAT + 32e6 / READ_BW)

    def test_asymmetric_bandwidth(self):
        engine = make_engine()
        read = engine.transfer(0.0, 64e6, READ)
        write = engine.transfer(read.end_time, 64e6, WRITE)
        assert write.duration > read.duration
        assert write.duration == pytest.approx(LAT + 64e6 / WRITE_BW)

    def test_zero_bytes_costs_nothing(self):
        engine = make_engine()
        record = engine.transfer(1.0, 0, WRITE)
        assert record.duration == 0.0
        assert engine.bytes_moved[WRITE] == 0.0

    def test_fifo_queueing_per_direction(self):
        engine = make_engine()
        first = engine.transfer(0.0, 32e6, READ)
        second = engine.transfer(0.0, 32e6, READ)
        assert second.start_time == pytest.approx(first.end_time)
        assert second.start_time > second.enqueue_time

    def test_validation(self):
        with pytest.raises(ValueError):
            make_engine(read_bandwidth=0)
        with pytest.raises(ValueError):
            make_engine(write_bandwidth=-1)
        with pytest.raises(ValueError):
            make_engine(penalty=0.0)
        with pytest.raises(ValueError):
            make_engine(penalty=1.5)
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.transfer(0.0, -1, READ)
        with pytest.raises(ValueError):
            engine.transfer(0.0, 1024, READ, 0)

    def test_built_from_the_spec(self):
        engine = Link.nvme(A100_80GB)
        assert engine.bandwidth == {
            READ: A100_80GB.nvme_read_bandwidth, WRITE: A100_80GB.nvme_write_bandwidth
        }
        assert engine.penalty == A100_80GB.nvme_mixed_penalty
        assert engine.min_latency == A100_80GB.nvme_min_latency
        assert engine.restore_first


class TestContention:
    def test_mixed_queue_penalty_slows_read(self):
        engine = make_engine(penalty=0.5, restore_first=False)
        engine.transfer(0.0, 64e6, WRITE)
        read = engine.transfer(0.0, 32e6, READ)
        assert read.duration == pytest.approx(LAT + 32e6 / (READ_BW * 0.5))

    def test_writes_defer_to_inflight_reads(self):
        engine = make_engine()
        read = engine.transfer(0.0, 64e6, READ)
        write = engine.transfer(0.0, 8e6, WRITE)
        # Demotion waits for the promotion to drain entirely...
        assert write.start_time == pytest.approx(read.end_time)
        # ...and then runs at full bandwidth (no longer mixed).
        assert write.duration == pytest.approx(LAT + 8e6 / WRITE_BW)

    def test_no_prioritization_means_mixed_write(self):
        engine = make_engine(restore_first=False, penalty=0.7)
        engine.transfer(0.0, 64e6, READ)
        write = engine.transfer(0.0, 8e6, WRITE)
        assert write.start_time == 0.0
        assert write.duration == pytest.approx(LAT + 8e6 / (WRITE_BW * 0.7))

    def test_idle_at(self):
        """A write enqueued before the read drains waits for it; one
        enqueued once the link is idle starts at once."""
        def write_after_read(now):
            engine = make_engine()
            engine.transfer(0.0, 32e6, READ)
            return engine.transfer(now, 1e3, WRITE).start_time

        end = make_engine().transfer(0.0, 32e6, READ).end_time
        assert write_after_read(end - 1e-6) == end
        assert write_after_read(end) == end
        assert write_after_read(end + 1.0) == end + 1.0


class TestCoalescing:
    def test_one_latency_per_stacked_transfer(self):
        """A 4-chunk coalesced submission pays min_latency once; four
        singleton submissions pay it four times."""
        chunk_bytes = 8e6
        stacked = make_engine().transfer(0.0, 4 * chunk_bytes, WRITE, 4)
        singles = make_engine()
        t = 0.0
        for _ in range(4):
            t = singles.transfer(t, chunk_bytes, WRITE).end_time
        assert t - stacked.end_time == pytest.approx(3 * LAT)

    def test_history_and_byte_accounting(self):
        engine = make_engine()
        engine.transfer(0.0, 1000, WRITE, 2)
        engine.transfer(0.0, 500, READ)
        assert engine.bytes_moved[WRITE] == 1000
        assert engine.bytes_moved[READ] == 500
        assert len(engine.history) == 2
        assert engine.history[-1].direction is READ
        assert engine.history[0].num_chunks == 2


class TestTracing:
    def test_counters_reconcile_with_bytes_moved(self):
        engine = make_engine()
        engine.tracer = tracer = Tracer()
        engine.transfer(0.0, 1000, WRITE, 3)
        engine.transfer(0.0, 500, READ, 2)
        engine.transfer(1.0, 250, READ)
        assert tracer.counter("nvme.write_bytes") == engine.bytes_moved[WRITE]
        assert tracer.counter("nvme.read_bytes") == engine.bytes_moved[READ]
        assert tracer.counter("nvme.write_transfers") == 1
        assert tracer.counter("nvme.read_transfers") == 2
        assert tracer.counter("nvme.write_chunks") == 3
        assert tracer.counter("nvme.read_chunks") == 3
        spans = tracer.spans_named("nvme.write") + tracer.spans_named("nvme.read")
        assert len(spans) == 3
