"""Requests, turns and conversations.

A :class:`Conversation` is a scripted multi-turn dialogue: a list of
:class:`Turn` records giving each turn's new-prompt length and (pre-drawn)
output length.  A :class:`Request` is one turn submitted to an engine; it
carries the conversation's cumulative history size so a *stateless* engine
knows how many tokens its prompt really contains (history + new prompt),
while a *stateful* engine consults its cache instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class RequestState(enum.Enum):
    """Lifecycle of a request inside an engine."""

    WAITING = "waiting"      #: in the scheduler's wait queue.
    RUNNING = "running"      #: member of the running batch.
    SUSPENDED = "suspended"  #: preempted; KV swapped out / discarded.
    FINISHED = "finished"    #: all output tokens emitted.
    FAILED = "failed"        #: degraded individually after exhausting retries.


@dataclass(frozen=True, slots=True)
class Turn:
    """One scripted turn: the user's prompt size and the reply size."""

    prompt_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.prompt_tokens <= 0:
            raise ValueError(f"prompt_tokens must be positive, got {self.prompt_tokens}")
        if self.output_tokens <= 0:
            raise ValueError(f"output_tokens must be positive, got {self.output_tokens}")


@dataclass(slots=True)
class Conversation:
    """A scripted multi-turn conversation.

    Attributes:
        conv_id: unique id; doubles as the cache key in stateful engines.
        turns: scripted turns, in order.
        start_time: arrival time of the first turn.
        think_times: per-follow-up-turn user think times (length
            ``len(turns) - 1``), pre-drawn so runs are reproducible across
            engines.
    """

    conv_id: int
    turns: List[Turn]
    start_time: float = 0.0
    think_times: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.turns:
            raise ValueError("conversation must have at least one turn")
        if self.think_times and len(self.think_times) != len(self.turns) - 1:
            raise ValueError(
                f"need {len(self.turns) - 1} think times, got {len(self.think_times)}"
            )
        if not self.think_times:
            self.think_times = [0.0] * (len(self.turns) - 1)

    @property
    def num_turns(self) -> int:
        return len(self.turns)

    def history_tokens(self, turn_index: int) -> int:
        """Context tokens accumulated *before* ``turn_index`` begins."""
        return sum(
            t.prompt_tokens + t.output_tokens for t in self.turns[:turn_index]
        )

    def total_tokens(self) -> int:
        """Full context size after the final turn completes."""
        return self.history_tokens(self.num_turns)


@dataclass(slots=True, eq=False)
class Request:
    """One turn of a conversation, as submitted to an engine.

    A request compares by identity: each submission is its own object,
    and the schedulers' ``list.remove`` and ``in`` tests then cost one
    pointer comparison instead of a field-by-field ``__eq__``.

    Attributes:
        request_id: unique per submission.
        conversation: the owning conversation script.
        turn_index: which turn this request is.
        arrival_time: simulated submission time.
    """

    request_id: int
    conversation: Conversation
    turn_index: int
    arrival_time: float
    state: RequestState = RequestState.WAITING
    # Engine-maintained progress:
    generated_tokens: int = 0
    prefill_done: bool = False
    finish_time: Optional[float] = None
    first_token_time: Optional[float] = None
    #: Tokens the engine must actually prefill (set at admission: history
    #: for stateless engines, recompute+prompt for Pensieve).
    prefill_tokens: int = 0
    #: When the previous output token landed (SLO layer: time-between-
    #: tokens is measured per wait-free gap, so a suspension that requeues
    #: the request shows up as one long gap, not a lost sample).
    last_token_time: Optional[float] = None
    #: When the request last (re-)entered the wait queue; queue wait is
    #: measured per episode so re-admissions after a suspension don't
    #: double-count the first wait.
    last_enqueue_time: Optional[float] = None

    @property
    def conv_id(self) -> int:
        return self.conversation.conv_id

    @property
    def turn(self) -> Turn:
        return self.conversation.turns[self.turn_index]

    @property
    def prompt_tokens(self) -> int:
        """New-prompt tokens of this turn (excludes history)."""
        return self.turn.prompt_tokens

    @property
    def history_tokens(self) -> int:
        """Conversation context accumulated before this turn."""
        return self.conversation.history_tokens(self.turn_index)

    @property
    def output_tokens(self) -> int:
        """Scripted reply length."""
        return self.turn.output_tokens

    @property
    def total_context(self) -> int:
        """Context size when this turn finishes."""
        return self.history_tokens + self.prompt_tokens + self.output_tokens

    @property
    def is_last_turn(self) -> bool:
        return self.turn_index == self.conversation.num_turns - 1

    def latency(self) -> float:
        """End-to-end latency; only valid after the request finished."""
        if self.finish_time is None:
            raise RuntimeError(f"request {self.request_id} has not finished")
        return self.finish_time - self.arrival_time

    def normalized_latency(self) -> float:
        """End-to-end latency divided by output length (the paper's metric)."""
        return self.latency() / self.output_tokens

    def __repr__(self) -> str:
        return (
            f"Request(id={self.request_id}, conv={self.conv_id}, "
            f"turn={self.turn_index}, state={self.state.value}, "
            f"gen={self.generated_tokens}/{self.output_tokens})"
        )
