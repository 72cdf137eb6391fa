"""Pensieve core: the paper's primary contribution.

- :class:`~repro.core.engine.PensieveEngine` — the simulated serving
  engine (unified scheduler, two-tier cache, ahead-of-time swapping,
  suspension, dropped-token recomputation);
- :class:`~repro.core.server.StatefulChatServer` — the functional serving
  stack running real tensors through the numpy transformer with physical
  swap/drop/recompute;
- eviction policies (:class:`RetentionValuePolicy`, :class:`LruPolicy`).
"""

from repro.core.eviction import LruPolicy, RetentionValuePolicy
from repro.core.engine import PensieveEngine
from repro.core.server import StatefulChatServer

__all__ = [
    "RetentionValuePolicy",
    "LruPolicy",
    "PensieveEngine",
    "StatefulChatServer",
]
