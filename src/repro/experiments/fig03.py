"""Figure 3: prefill cost vs generation cost as history grows.

The paper's motivating measurement: a batch of 32 requests, each with a
200-token new prompt and a growing conversation history, compared against
the cost of 200 generation steps.  With a stateless engine the history is
part of the prompt and gets re-prefilled, so the prefill curve grows
linearly and soon dwarfs the generation curve; reusing cached history
("prompt-only prefill") stays flat.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.gpu.costmodel import CostModel
from repro.gpu.device import A100_80GB, GpuSpec
from repro.model.config import OPT_13B, ModelConfig

DEFAULT_HISTORY_SIZES = (0, 512, 1024, 2048, 4096, 8192, 12288)

#: Decode steps whose cost the prefill curves are set against.
GENERATION_STEPS = 200


def run_fig03(
    config: ModelConfig = OPT_13B,
    spec: GpuSpec = A100_80GB,
    batch_size: int = 32,
    prompt_tokens: int = 200,
    history_sizes: Sequence[int] = DEFAULT_HISTORY_SIZES,
) -> List[Dict[str, float]]:
    """Compute the Figure 3 series.

    Returns one row per history size with:

    - ``prefill_with_history``: stateless prefill (history re-processed);
    - ``prefill_prompt_only``: stateful prefill (history already cached);
    - ``generation``: the 200-step generation cost at that context size.
    """
    cm = CostModel(config, spec)
    rows: List[Dict[str, float]] = []
    for history in history_sizes:
        stateless = cm.prefill_time(batch_size, prompt_tokens + history, 0)
        stateful = cm.prefill_time(batch_size, prompt_tokens, history)
        generation = cm.generation_time(
            batch_size, history + prompt_tokens, GENERATION_STEPS
        )
        rows.append(
            {
                "history_tokens": history,
                "prefill_with_history_s": stateless,
                "prefill_prompt_only_s": stateful,
                "generation_s": generation,
            }
        )
    return rows


def format_fig03(rows: List[Dict[str, float]]) -> str:
    lines = [
        "Figure 3 — execution time, batch of 32 requests "
        "(200-token prompt, 200 generation steps)",
        f"{'history':>8} {'prefill w/ hist':>16} {'prefill prompt':>15} "
        f"{'generation':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row['history_tokens']:>8d} "
            f"{row['prefill_with_history_s']:>15.3f}s "
            f"{row['prefill_prompt_only_s']:>14.3f}s "
            f"{row['generation_s']:>10.3f}s"
        )
    return "\n".join(lines)
