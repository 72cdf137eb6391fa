"""The host-side transfer link: the PCIe link between GPU and CPU tier.

KV chunks move between the GPU and the CPU tier over a full-duplex link
(:class:`Link`):

- **One queue per direction**, each at the link's bandwidth.
- **Duplex contention** (§5): overlapping transfers in the two
  directions degrade both, by 18-20 % (0.81).  The penalty applies to
  any transfer enqueued while the opposite direction is busy.
- **Restore before evict** (§5): with ``restore_first``, a swap-out
  waits until every pending swap-in has drained — eviction is
  ahead-of-time and not urgent.
- **A fixed latency per transfer**, one DMA setup, charged once per
  coalesced multi-chunk transfer.

A link is a pure timing model: callers pass the current simulated time
and receive a completion time; actual bytes never move.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.gpu.device import GpuSpec
from repro.obs.tracer import Tracer


class Direction(enum.Enum):
    """Transfer direction over the link; ``H2D`` restores."""

    H2D = "h2d"      #: host (CPU cache) to device (GPU cache): swap-in.
    D2H = "d2h"      #: device to host: swap-out / eviction.

    #: Identity hashing, as :class:`~repro.kvcache.chunks.ChunkLocation`.
    __hash__ = object.__hash__

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


_OPPOSITE = {Direction.H2D: Direction.D2H, Direction.D2H: Direction.H2D}


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """Outcome of one enqueued transfer.

    ``num_chunks`` records how many KV chunks the transfer coalesced:
    the tiered manager moves multi-chunk batches as ONE DMA operation
    (one record, one queueing decision, one latency term) rather than one
    per chunk.
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


class Link:
    """Serialises transfers per direction and models duplex contention.

    Each direction behaves like a FIFO queue: a new transfer starts at
    ``max(now, busy_until[direction])``.  If, at its start time, the
    opposite queue is still draining, the transfer's bandwidth is reduced
    by ``penalty`` (a deliberate simplification: the penalty is applied
    for the whole transfer rather than only the overlapping fraction,
    which is conservative for Pensieve since it *discourages* overlap
    exactly as the paper's measurement did).  Every span and counter is
    prefixed ``pcie`` (``pcie.h2d``, ``pcie.d2h_bytes``, ...).

    Args:
        bandwidth: bytes/s in each direction.
        penalty: bandwidth factor under duplex contention, in (0, 1].
        restore_first: swap-outs wait for in-flight swap-ins (§5).
        min_latency: fixed seconds per transfer.
    """

    def __init__(
        self,
        bandwidth: float,
        penalty: float,
        restore_first: bool = True,
        min_latency: float = 10e-6,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if not 0.0 < penalty <= 1.0:
            raise ValueError(f"penalty must be in (0, 1], got {penalty}")
        self.bandwidth = bandwidth
        self.penalty = penalty
        self.restore_first = restore_first
        self.min_latency = min_latency
        self._busy_until = {Direction.H2D: 0.0, Direction.D2H: 0.0}
        self._history: List[TransferRecord] = []
        self.bytes_moved = {Direction.H2D: 0.0, Direction.D2H: 0.0}
        #: Observability sink (``repro.obs``); every transfer becomes a
        #: ``pcie.<direction>`` span and a byte counter that reconciles
        #: exactly with :attr:`bytes_moved`.
        self.tracer: Optional[Tracer] = None

    @classmethod
    def pcie(
        cls, spec: GpuSpec, num_gpus: int = 1, prioritize_retrieval: bool = True
    ) -> "Link":
        """The GPU<->CPU link.  Tensor parallelism shards the KV feature
        dimension, so each of the ``num_gpus`` workers moves 1/N of the
        bytes over its own PCIe link (§4.4.2): aggregate bandwidth scales
        with ``num_gpus``."""
        return cls(
            spec.pcie_bandwidth * num_gpus, spec.pcie_duplex_penalty,
            restore_first=prioritize_retrieval,
        )

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

        Returns the resulting :class:`TransferRecord`; the link's internal
        busy-until state advances to the transfer's end time.
        """
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
        busy = self._busy_until
        start = max(now, busy[direction])
        opposite = busy[direction.opposite]
        if self.restore_first and direction is Direction.D2H and opposite > start:
            # Eviction defers to in-flight restores (§5 optimisation).
            start = opposite
        bandwidth = self.bandwidth
        if opposite > start:
            bandwidth *= self.penalty
        duration = self.min_latency + num_bytes / bandwidth if num_bytes > 0 else 0.0
        end = start + duration
        busy[direction] = max(busy[direction], end)
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
        tracer = self.tracer
        if tracer is not None:
            name = f"pcie.{direction.value}"
            tracer.complete(
                name,
                start,
                end,
                track="pcie",
                bytes=num_bytes,
                queue_delay=start - now,
                chunks=num_chunks,
            )
            tracer.count(f"{name}_bytes", num_bytes)
            tracer.count(f"{name}_transfers")
            tracer.count(f"{name}_chunks", num_chunks)
        return record

    @property
    def history(self) -> List[TransferRecord]:
        """All transfers performed so far, in enqueue order."""
        return list(self._history)
