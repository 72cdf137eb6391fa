"""Host-side transfer links: the PCIe link and the NVMe drive.

Both tiers behind the GPU move KV chunks over a full-duplex link, and
one timing model serves both (:class:`Link`):

- **Per-direction bandwidth.**  The PCIe link is symmetric and passes
  the same rate twice; NVMe reads sustain more than writes.
- **Duplex contention** (§5): overlapping transfers in the two
  directions degrade both, by 18-20 % on PCIe (0.81) and more on NVMe,
  where flash programs block reads (0.70).  The penalty applies to any
  transfer enqueued while the opposite direction is busy.
- **Restore before evict** (§5): with ``restore_first``, a transfer in
  the evicting direction (swap-out, demotion) waits until every pending
  transfer in the restoring direction (swap-in, promotion) has drained —
  eviction is ahead-of-time and not urgent.
- **A fixed latency per transfer.**  One DMA setup on PCIe, one command
  round-trip on NVMe (about ten times longer), charged once per
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
    """Transfer direction over a link; ``H2D`` and ``READ`` restore."""

    H2D = "h2d"      #: host (CPU cache) to device (GPU cache): swap-in.
    D2H = "d2h"      #: device to host: swap-out / eviction.
    READ = "read"    #: SSD to host: chunk promotion (restore path).
    WRITE = "write"  #: host to SSD: chunk demotion (eviction path).

    #: Identity hashing, as :class:`~repro.kvcache.chunks.ChunkLocation`.
    __hash__ = object.__hash__

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.H2D: Direction.D2H,
    Direction.D2H: Direction.H2D,
    Direction.READ: Direction.WRITE,
    Direction.WRITE: Direction.READ,
}

#: ``(restore, evict)`` directions of each link, keyed by its name.
_DIRECTIONS = {
    "pcie": (Direction.H2D, Direction.D2H),
    "nvme": (Direction.READ, Direction.WRITE),
}


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """Outcome of one enqueued transfer.

    ``num_chunks`` records how many KV chunks the transfer coalesced:
    the tiered manager moves multi-chunk batches as ONE DMA operation or
    I/O submission (one record, one queueing decision, one latency term)
    rather than one per chunk.
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
    exactly as the paper's measurement did).

    Args:
        name: ``"pcie"`` or ``"nvme"``; picks the two directions and
            prefixes every span and counter (``pcie.h2d``,
            ``nvme.write_bytes``, ...).
        restore_bandwidth: bytes/s toward the GPU (``H2D`` / ``READ``).
        evict_bandwidth: bytes/s away from it (``D2H`` / ``WRITE``).
        penalty: bandwidth factor under duplex contention, in (0, 1].
        restore_first: evictions wait for in-flight restores (§5).
        min_latency: fixed seconds per transfer.
    """

    def __init__(
        self,
        name: str,
        restore_bandwidth: float,
        evict_bandwidth: float,
        penalty: float,
        restore_first: bool = True,
        min_latency: float = 10e-6,
    ) -> None:
        if name not in _DIRECTIONS:
            raise ValueError(f"unknown link {name!r}; expected pcie or nvme")
        if restore_bandwidth <= 0 or evict_bandwidth <= 0:
            raise ValueError(
                f"bandwidths must be positive, got restore={restore_bandwidth} "
                f"evict={evict_bandwidth}"
            )
        if not 0.0 < penalty <= 1.0:
            raise ValueError(f"penalty must be in (0, 1], got {penalty}")
        self.name = name
        restore, self.evict = _DIRECTIONS[name]
        self.bandwidth = {restore: restore_bandwidth, self.evict: evict_bandwidth}
        self.penalty = penalty
        self.restore_first = restore_first
        self.min_latency = min_latency
        self._busy_until = {restore: 0.0, self.evict: 0.0}
        self._history: List[TransferRecord] = []
        self.bytes_moved = {restore: 0.0, self.evict: 0.0}
        #: Observability sink (``repro.obs``); every transfer becomes a
        #: ``<name>.<direction>`` span and a byte counter that reconciles
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
        bandwidth = spec.pcie_bandwidth * num_gpus
        return cls(
            "pcie", bandwidth, bandwidth, spec.pcie_duplex_penalty,
            restore_first=prioritize_retrieval,
        )

    @classmethod
    def nvme(cls, spec: GpuSpec) -> "Link":
        """The host<->SSD link of the disk tier.  The drive is a
        host-side device: unlike the PCIe links its bandwidth does not
        scale with tensor-parallel width."""
        return cls(
            "nvme", spec.nvme_read_bandwidth, spec.nvme_write_bandwidth,
            spec.nvme_mixed_penalty, min_latency=spec.nvme_min_latency,
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
        if self.restore_first and direction is self.evict and opposite > start:
            # Eviction defers to in-flight restores (§5 optimisation).
            start = opposite
        bandwidth = self.bandwidth[direction]
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
            name = f"{self.name}.{direction.value}"
            tracer.complete(
                name,
                start,
                end,
                track=self.name,
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
