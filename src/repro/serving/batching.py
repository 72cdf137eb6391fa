"""Iteration-level batching configuration.

All engines perform iteration-level (token-granularity) batching
[BatchMaker 17, ORCA 52]: after every model iteration, finished requests
leave the batch and waiting requests may join.  :class:`BatchConfig`
captures the admission limits shared by every engine plus the
Pensieve-specific thresholds of §4.3.  The evaluation's 16384-token
context cap is not among them: it belongs to the workload
(``DatasetSpec.max_context``), and no engine truncates a request.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BatchConfig:
    """Admission and cache-management thresholds.

    Attributes:
        max_batch_tokens: cap on the total number of input tokens processed
            in one iteration (prefill tokens count fully, a generation-phase
            request counts 1).
        max_running: cap on concurrently running requests.
        swap_out_threshold: start ahead-of-time swap-out when free GPU KV
            slots drop below this fraction of capacity (§4.3.2, 25 %).
        generation_reserve: stop admitting new requests unless more than
            this fraction of GPU KV slots is free, protecting running
            generations from suspension (§4.3.5, 10 %).
    """

    max_batch_tokens: int = 4096
    max_running: int = 256
    swap_out_threshold: float = 0.25
    generation_reserve: float = 0.10

    def __post_init__(self) -> None:
        if self.max_batch_tokens <= 0:
            raise ValueError("max_batch_tokens must be positive")
        if self.max_running <= 0:
            raise ValueError("max_running must be positive")
        if not 0.0 <= self.swap_out_threshold < 1.0:
            raise ValueError("swap_out_threshold must be in [0, 1)")
        if not 0.0 <= self.generation_reserve < 1.0:
            raise ValueError("generation_reserve must be in [0, 1)")
