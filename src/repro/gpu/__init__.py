"""Simulated GPU substrate.

This subpackage substitutes for the A100 hardware of the paper's testbed:

- :mod:`repro.gpu.device` — device specifications (peak FLOPs, HBM
  bandwidth, memory capacity, interconnects) with an A100-80GB preset;
- :mod:`repro.gpu.costmodel` — an analytical roofline model that converts
  batch shapes into kernel execution times, including the Figure 12 kernel
  variants (ideal contiguous, Pensieve multi-token paged, CopyOut straw-man,
  multi-round PagedAttention straw-man);
- :mod:`repro.gpu.link` — the full-duplex PCIe link between the GPU and
  the CPU tier: per-direction queues, the duplex contention the paper
  measured (§5), restore-before-evict prioritization, and a fixed
  latency per coalesced transfer;
- :mod:`repro.gpu.profiler` — the offline power-of-two profiling +
  interpolation used by the retention-value eviction policy (§4.3.1).
"""

from repro.gpu.device import A100_80GB, GpuSpec
from repro.gpu.costmodel import BatchShape, CostModel, KernelVariant
from repro.gpu.link import Direction, Link, TransferRecord
from repro.gpu.profiler import AttentionCostProfile, OfflineProfiler

__all__ = [
    "GpuSpec",
    "A100_80GB",
    "CostModel",
    "BatchShape",
    "KernelVariant",
    "Link",
    "Direction",
    "TransferRecord",
    "OfflineProfiler",
    "AttentionCostProfile",
]
