"""GPU device specifications.

A :class:`GpuSpec` captures the handful of hardware numbers the roofline
cost model needs.  The preset :data:`A100_80GB` matches the Azure NC A100 v4
nodes of the paper's evaluation (§6.1): A100-80GB GPUs, PCIe 4.0 x16 host
link, 220 GB of CPU memory per GPU, and 40 GB of GPU memory dedicated to the
KV cache.

Efficiency factors discount theoretical peaks to the sustained rates real
kernels achieve; they are the only free parameters of the performance layer
and are fixed once, globally, rather than tuned per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GpuSpec:
    """Hardware description of one GPU and its host link.

    Attributes:
        name: human-readable device name.
        peak_flops: theoretical peak fp16 tensor-core FLOP/s.
        hbm_bandwidth: device memory bandwidth in bytes/s.
        memory_bytes: total device memory in bytes.
        kv_cache_bytes: device memory reserved for the KV cache (the paper
            configures 40 GB per GPU for every evaluated system).
        pcie_bandwidth: sustained host-link bandwidth per direction, bytes/s.
        pcie_duplex_penalty: multiplicative slowdown applied to *both*
            directions when transfers overlap (the paper measured an
            18-20 % drop; we use 0.81, i.e. a 19 % drop).
        nvlink_bandwidth: per-GPU all-reduce bandwidth for tensor
            parallelism, bytes/s.
        cpu_memory_bytes: host memory available for the CPU cache tier,
            per GPU.
        gemm_efficiency: fraction of ``peak_flops`` sustained by large
            dense GEMMs (prefill-phase linear layers).
        attention_efficiency: fraction of ``hbm_bandwidth`` sustained by
            attention kernels (they are memory-bound at generation time).
        kernel_launch_overhead: fixed seconds of CPU-side launch/sync
            overhead per kernel invocation.
        step_overhead: fixed seconds of scheduler/framework overhead per
            batch iteration (Python driver, tensor bookkeeping).
    """

    name: str = "A100-80GB"
    peak_flops: float = 312e12
    hbm_bandwidth: float = 1.935e12
    memory_bytes: int = 80 * 1024**3
    kv_cache_bytes: int = 40 * 1024**3
    pcie_bandwidth: float = 25e9
    pcie_duplex_penalty: float = 0.81
    nvlink_bandwidth: float = 300e9
    cpu_memory_bytes: int = 220 * 1024**3
    gemm_efficiency: float = 0.55
    attention_efficiency: float = 0.60
    kernel_launch_overhead: float = 5e-6
    step_overhead: float = 2.5e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.pcie_duplex_penalty <= 1.0:
            raise ValueError(
                f"pcie_duplex_penalty must be in (0, 1], got {self.pcie_duplex_penalty}"
            )
        if self.kv_cache_bytes > self.memory_bytes:
            raise ValueError("KV cache reservation exceeds device memory")

    @property
    def effective_flops(self) -> float:
        """Sustained GEMM FLOP/s."""
        return self.peak_flops * self.gemm_efficiency

    @property
    def effective_hbm_bandwidth(self) -> float:
        """Sustained memory bandwidth for attention/KV traffic."""
        return self.hbm_bandwidth * self.attention_efficiency


A100_80GB = GpuSpec()
