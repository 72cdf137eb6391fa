"""Host-link (PCIe) transfer engine.

Models the GPU<->CPU copies Pensieve uses for KV-token swapping.  Two
behaviours from the paper are captured:

- **Full-duplex contention** (§5): overlapping host-to-device and
  device-to-host transfers degrade both directions by 18-20 %.  The engine
  applies the :attr:`~repro.gpu.device.GpuSpec.pcie_duplex_penalty` factor
  to any transfer enqueued while the opposite direction is busy.
- **Retrieval-over-eviction prioritization** (§5): with the optimisation
  enabled, device-to-host copies (swap-out / eviction) wait until all
  pending host-to-device copies (swap-in / retrieval) have drained, since
  swap-out is ahead-of-time and not urgent.

The engine is a pure timing model: callers pass the current simulated time
and receive a completion time; actual bytes never move.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.obs.tracer import NULL_TRACER


class Direction(enum.Enum):
    """Transfer direction over the host link."""

    H2D = "h2d"  #: host (CPU cache) to device (GPU cache): swap-in.
    D2H = "d2h"  #: device to host: swap-out / eviction.

    @property
    def opposite(self) -> "Direction":
        return Direction.D2H if self is Direction.H2D else Direction.H2D


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """Outcome of one enqueued transfer.

    ``num_chunks`` records how many KV chunks the transfer coalesced:
    the two-tier manager moves multi-chunk batches as ONE DMA operation
    (one record, one queueing decision, one latency term) rather than
    one per chunk.
    """

    direction: Direction
    num_bytes: float
    enqueue_time: float
    start_time: float
    end_time: float
    num_chunks: int = 1

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def queue_delay(self) -> float:
        return self.start_time - self.enqueue_time


class PcieEngine:
    """Serialises transfers per direction and models duplex contention.

    Each direction behaves like a FIFO DMA queue: a new transfer starts at
    ``max(now, busy_until[direction])``.  If, at its start time, the
    opposite queue is still draining, the transfer's bandwidth is reduced by
    the duplex penalty (a deliberate simplification: the penalty is applied
    for the whole transfer rather than only the overlapping fraction, which
    is conservative for Pensieve since it *discourages* overlap exactly as
    the paper's measurement did).
    """

    def __init__(
        self,
        bandwidth: float,
        duplex_penalty: float = 0.81,
        prioritize_retrieval: bool = True,
        min_latency: float = 10e-6,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if not 0.0 < duplex_penalty <= 1.0:
            raise ValueError(f"duplex_penalty must be in (0, 1], got {duplex_penalty}")
        self.bandwidth = bandwidth
        self.duplex_penalty = duplex_penalty
        self.prioritize_retrieval = prioritize_retrieval
        self.min_latency = min_latency
        self._busy_until = {Direction.H2D: 0.0, Direction.D2H: 0.0}
        self._history: List[TransferRecord] = []
        self.bytes_moved = {Direction.H2D: 0.0, Direction.D2H: 0.0}
        #: Observability sink (``repro.obs``); every transfer becomes a
        #: ``pcie.h2d`` / ``pcie.d2h`` span and a byte counter that
        #: reconciles exactly with :attr:`bytes_moved`.
        self.tracer = NULL_TRACER

    def busy_until(self, direction: Direction) -> float:
        """Time at which the given direction's queue drains."""
        return self._busy_until[direction]

    def transfer(
        self,
        now: float,
        num_bytes: float,
        direction: Direction,
        num_chunks: int = 1,
    ) -> TransferRecord:
        """Enqueue a transfer of ``num_bytes`` at simulated time ``now``.

        ``num_chunks`` is the number of KV chunks the transfer coalesces
        (pure accounting; the timing model charges one ``min_latency``
        regardless — that *is* the coalescing win).

        Returns the resulting :class:`TransferRecord`; the engine's internal
        busy-until state advances to the transfer's end time.
        """
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
        start = max(now, self._busy_until[direction])
        if (
            self.prioritize_retrieval
            and direction is Direction.D2H
            and self._busy_until[Direction.H2D] > start
        ):
            # Eviction defers to in-flight retrieval (§5 optimisation).
            start = self._busy_until[Direction.H2D]
        bandwidth = self.bandwidth
        if self._busy_until[direction.opposite] > start:
            bandwidth *= self.duplex_penalty
        duration = self.min_latency + num_bytes / bandwidth if num_bytes > 0 else 0.0
        end = start + duration
        self._busy_until[direction] = max(self._busy_until[direction], end)
        record = TransferRecord(
            direction=direction,
            num_bytes=num_bytes,
            enqueue_time=now,
            start_time=start,
            end_time=end,
            num_chunks=num_chunks,
        )
        self._history.append(record)
        self.bytes_moved[direction] += num_bytes
        if self.tracer.enabled:
            name = f"pcie.{direction.value}"
            self.tracer.complete(
                name,
                start,
                end,
                track="pcie",
                bytes=num_bytes,
                queue_delay=start - now,
                chunks=num_chunks,
            )
            self.tracer.count(f"{name}_bytes", num_bytes)
            self.tracer.count(f"{name}_transfers")
            self.tracer.count(f"{name}_chunks", num_chunks)
        return record

    def swap_in(
        self, now: float, num_bytes: float, num_chunks: int = 1
    ) -> TransferRecord:
        """CPU-to-GPU transfer (KV-token retrieval)."""
        return self.transfer(now, num_bytes, Direction.H2D, num_chunks)

    def swap_out(
        self, now: float, num_bytes: float, num_chunks: int = 1
    ) -> TransferRecord:
        """GPU-to-CPU transfer (ahead-of-time eviction)."""
        return self.transfer(now, num_bytes, Direction.D2H, num_chunks)

    def idle_at(self, now: float) -> bool:
        """True when both directions have drained by ``now``."""
        return all(t <= now for t in self._busy_until.values())

    @property
    def history(self) -> List[TransferRecord]:
        """All transfers performed so far, in enqueue order."""
        return list(self._history)

    def last(self) -> Optional[TransferRecord]:
        """Most recently enqueued transfer, if any."""
        return self._history[-1] if self._history else None
