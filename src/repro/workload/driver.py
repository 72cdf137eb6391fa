"""Conversation workload driver.

Connects a scripted workload to an engine on the event loop:

- each conversation's first turn is submitted at its scripted start time;
- when the engine finishes turn ``i``, turn ``i + 1`` is submitted after
  the scripted user think time — preserving the causal ordering of §6.1
  ("a new user prompt is only sent after the response to the previous
  request has been received").
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from repro.serving.engine import EngineBase
from repro.serving.metrics import ServingStats
from repro.serving.request import Conversation, Request
from repro.sim.events import EventLoop


class ConversationDriver:
    """Feeds conversations to an engine and runs the simulation."""

    def __init__(
        self,
        loop: EventLoop,
        engine: EngineBase,
        conversations: Sequence[Conversation],
    ) -> None:
        self.loop = loop
        self.engine = engine
        self.conversations = list(conversations)
        self._request_ids = itertools.count()
        self._outstanding = 0
        if engine.on_finish is not None:
            raise RuntimeError("engine already has an on_finish callback")
        engine.on_finish = self._handle_finish

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Schedule all first turns and run the event loop to completion.

        The engine's ``on_finish`` hook is released when the run ends, so
        the engine does not hold its driver: a finished run's engine is
        freed as soon as its last reference goes, without waiting for
        the cyclic collector.

        Args:
            until: optional simulation horizon (seconds).
            max_events: safety valve passed to the event loop.
        """
        for conversation in self.conversations:
            self.loop.schedule(
                max(conversation.start_time, self.loop.now),
                self._submit_turn,
                conversation,
                0,
            )
            self._outstanding += conversation.num_turns
        try:
            self.loop.run(until=until, max_events=max_events)
        finally:
            self.engine.on_finish = None

    @property
    def outstanding(self) -> int:
        """Turns neither completed nor given up (0 when the workload fully
        drained).  A failed turn gives up the rest of its conversation:
        no later turn is submitted."""
        return self._outstanding - sum(
            r.conversation.num_turns - r.turn_index for r in self.engine.failed
        )

    def _submit_turn(self, conversation: Conversation, turn_index: int) -> None:
        request = Request(
            request_id=next(self._request_ids),
            conversation=conversation,
            turn_index=turn_index,
            arrival_time=self.loop.now,
        )
        self.engine.submit(request)

    def _handle_finish(self, request: Request, now: float) -> None:
        self._outstanding -= 1
        if not request.is_last_turn:
            think = request.conversation.think_times[request.turn_index]
            self.loop.schedule(
                now + think,
                self._submit_turn,
                request.conversation,
                request.turn_index + 1,
            )

    def stats(self, warmup: float = 0.0, until: Optional[float] = None) -> ServingStats:
        """Aggregate engine metrics over a measurement window."""
        return self.engine.metrics.stats(warmup=warmup, until=until)
