"""Synthetic conversation datasets calibrated to Table 2.

Each :class:`DatasetSpec` describes one dataset's distributions:

- **turn count**: a shifted geometric distribution (real multi-turn data
  is dominated by short conversations with a long tail);
- **request input length** (the user's new prompt per turn) and **request
  output length** (the model's reply per turn): lognormal distributions —
  the standard heavy-tailed fit for utterance lengths — parameterised by
  their *target mean* so the generated corpus matches Table 2:

  ============================  =========  ==========
  statistic                     ShareGPT   UltraChat
  ============================  =========  ==========
  mean # of turns                5.56       3.86
  mean request input length      37.77      51.78
  mean request output length     204.58     257.81
  ============================  =========  ==========

Following §6.1, conversations are truncated so the total context never
exceeds ``max_context`` (16384) tokens — the paper drops the 0.57 % of
ShareGPT conversations above that limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.serving.request import Conversation, Turn
from repro.workload.arrivals import exponential_think_times, poisson_arrivals


@dataclass(frozen=True)
class DatasetSpec:
    """Distribution parameters of one conversation dataset.

    Attributes:
        name: dataset label.
        mean_turns: target mean number of turns per conversation.
        mean_input_len: target mean new-prompt length per request.
        mean_output_len: target mean reply length per request.
        input_sigma / output_sigma: lognormal shape parameters (spread of
            the heavy tail).
        max_context: cap on a conversation's total token count.
    """

    name: str
    mean_turns: float
    mean_input_len: float
    mean_output_len: float
    input_sigma: float = 1.0
    output_sigma: float = 0.9
    max_context: int = 16384

    def __post_init__(self) -> None:
        if self.mean_turns < 1.0:
            raise ValueError("mean_turns must be >= 1")
        if self.mean_input_len <= 0 or self.mean_output_len <= 0:
            raise ValueError("mean lengths must be positive")

    def sample_turns(self, rng: np.random.Generator) -> int:
        """Geometric (support >= 1) with mean ``mean_turns``."""
        if self.mean_turns <= 1.0:
            return 1
        return int(rng.geometric(1.0 / self.mean_turns))

    def _lognormal(self, rng: np.random.Generator, mean: float, sigma: float) -> int:
        """One lognormal sample with the given *arithmetic* mean."""
        mu = math.log(mean) - sigma * sigma / 2.0
        return max(1, int(round(rng.lognormal(mu, sigma))))

    def sample_input_len(self, rng: np.random.Generator) -> int:
        return self._lognormal(rng, self.mean_input_len, self.input_sigma)

    def sample_output_len(self, rng: np.random.Generator) -> int:
        return self._lognormal(rng, self.mean_output_len, self.output_sigma)


SHAREGPT = DatasetSpec(
    name="ShareGPT",
    mean_turns=5.56,
    mean_input_len=37.77,
    mean_output_len=204.58,
)

ULTRACHAT = DatasetSpec(
    name="UltraChat",
    mean_turns=3.86,
    mean_input_len=51.78,
    mean_output_len=257.81,
)


def generate_conversation(
    spec: DatasetSpec, conv_id: int, rng: np.random.Generator
) -> Conversation:
    """Draw one conversation script from the dataset distributions.

    Turns that would push the cumulative context beyond ``max_context``
    are cut off (matching the paper's 16384-token cap).
    """
    num_turns = spec.sample_turns(rng)
    turns: List[Turn] = []
    total = 0
    for _ in range(num_turns):
        prompt = spec.sample_input_len(rng)
        output = spec.sample_output_len(rng)
        if total + prompt + output > spec.max_context:
            break
        turns.append(Turn(prompt_tokens=prompt, output_tokens=output))
        total += prompt + output
    if not turns:
        # The very first turn overflowed: clamp it so every conversation
        # has at least one valid turn.
        prompt = min(spec.sample_input_len(rng), spec.max_context // 2)
        output = min(spec.sample_output_len(rng), spec.max_context - prompt)
        turns.append(Turn(prompt_tokens=prompt, output_tokens=max(1, output)))
    return Conversation(conv_id=conv_id, turns=turns)


def generate_conversations(
    spec: DatasetSpec,
    num_conversations: int,
    request_rate: float,
    think_time_mean: float = 60.0,
    seed: int = 0,
) -> List[Conversation]:
    """Generate a timed workload.

    Conversation start times form a Poisson process whose rate is chosen
    so the long-run *request* rate matches ``request_rate`` (requests per
    second): ``conversation_rate = request_rate / mean_turns_generated``.
    Think times between turns are exponential with ``think_time_mean``
    (§6.1), pre-drawn per conversation for reproducibility.

    Args:
        spec: dataset distributions.
        num_conversations: how many conversations to script.
        request_rate: target aggregate request arrival rate (req/s).
        think_time_mean: mean user think time in seconds.
        seed: RNG seed; the same seed yields the same workload for every
            engine under test.
    """
    if num_conversations <= 0:
        raise ValueError("num_conversations must be positive")
    if request_rate <= 0:
        raise ValueError("request_rate must be positive")
    rng = np.random.default_rng(seed)
    conversations = [
        generate_conversation(spec, conv_id, rng)
        for conv_id in range(num_conversations)
    ]
    realized_mean_turns = float(
        np.mean([c.num_turns for c in conversations])
    )
    conv_rate = request_rate / realized_mean_turns
    starts = poisson_arrivals(rng, rate=conv_rate, count=num_conversations)
    for conversation, start in zip(conversations, starts):
        conversation.start_time = start
        conversation.think_times = exponential_think_times(
            rng, mean=think_time_mean, count=conversation.num_turns - 1
        )
    return conversations


def generate_workload(
    spec: DatasetSpec,
    request_rate: float,
    duration: float,
    think_time_mean: float = 60.0,
    seed: int = 0,
) -> List[Conversation]:
    """Generate a *sustained* workload: conversation arrivals cover the
    whole ``[0, duration]`` window.

    Unlike :func:`generate_conversations` (fixed conversation count), the
    number of conversations here is whatever the Poisson process produces
    in ``duration`` seconds at the rate matching ``request_rate`` — the
    right construction for measuring saturation throughput, where arrivals
    must not dry up before the measurement window closes.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if request_rate <= 0:
        raise ValueError("request_rate must be positive")
    rng = np.random.default_rng(seed)
    conv_rate = request_rate / spec.mean_turns
    conversations: List[Conversation] = []
    now = float(rng.exponential(1.0 / conv_rate))
    conv_id = 0
    while now <= duration:
        conversation = generate_conversation(spec, conv_id, rng)
        conversation.start_time = now
        conversation.think_times = exponential_think_times(
            rng, mean=think_time_mean, count=conversation.num_turns - 1
        )
        conversations.append(conversation)
        conv_id += 1
        now += float(rng.exponential(1.0 / conv_rate))
    if not conversations:
        conversation = generate_conversation(spec, 0, rng)
        conversation.start_time = duration / 2.0
        conversation.think_times = exponential_think_times(
            rng, mean=think_time_mean, count=conversation.num_turns - 1
        )
        conversations.append(conversation)
    return conversations


def dataset_statistics(conversations: List[Conversation]) -> Dict[str, float]:
    """Table 2 statistics of a generated corpus."""
    turns = [c.num_turns for c in conversations]
    inputs = [t.prompt_tokens for c in conversations for t in c.turns]
    outputs = [t.output_tokens for c in conversations for t in c.turns]
    return {
        "num_conversations": len(conversations),
        "mean_turns": float(np.mean(turns)),
        "mean_input_len": float(np.mean(inputs)),
        "mean_output_len": float(np.mean(outputs)),
        "total_requests": int(sum(turns)),
        "max_context": max(c.total_tokens() for c in conversations),
    }
