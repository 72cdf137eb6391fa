"""Serving framework: requests, batching, metrics, baseline engines.

This subpackage provides the request/conversation lifecycle shared by all
engines, the iteration-level batching machinery, the serving metrics of the
paper (throughput and normalized latency), and the two stateless baseline
engines the paper compares against:

- :class:`~repro.serving.stateless.StatelessEngine` in its vLLM
  configuration (PyTorch-speed execution, paged KV, separate prefill and
  decode batches, recompute-on-preemption);
- the same engine with a kernel-fusion speed factor, modelling
  TensorRT-LLM's compiled runtime.

The stateful Pensieve engine lives in :mod:`repro.core.engine` and builds
on the same primitives.  Metric names are written where they are
recorded; the SLO reconciliation suite checks them against real runs.
"""

from repro.serving.request import Conversation, Request, RequestState, Turn
from repro.serving.metrics import MetricsCollector, RequestRecord, ServingStats
from repro.serving.batching import BatchConfig
from repro.serving.engine import EngineBase
from repro.serving.stateless import StatelessEngine, make_tensorrt_llm, make_vllm

__all__ = [
    "Request",
    "RequestState",
    "Conversation",
    "Turn",
    "MetricsCollector",
    "RequestRecord",
    "ServingStats",
    "BatchConfig",
    "EngineBase",
    "StatelessEngine",
    "make_vllm",
    "make_tensorrt_llm",
]
