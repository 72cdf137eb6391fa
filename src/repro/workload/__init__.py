"""Workloads: conversation datasets, arrival processes, drivers.

The paper evaluates on ShareGPT (real user-shared ChatGPT conversations)
and UltraChat (large-scale synthetic dialogues).  Neither raw dump is
shippable, so :mod:`repro.workload.dataset` provides statistical generators
calibrated to the paper's Table 2 (turn counts, request input/output
lengths) with heavy-tailed length distributions; fixed seeds make every
experiment reproducible.

Arrival timing follows §6.1: conversation arrivals are Poisson under a
target request rate, turns within a conversation are causally ordered, and
user think time between turns is exponentially distributed (60 s mean by
default, swept in Figure 15).
"""

from repro.workload.dataset import (
    SHAREGPT,
    ULTRACHAT,
    DatasetSpec,
    generate_conversations,
    dataset_statistics,
)
from repro.workload.arrivals import exponential_think_times, poisson_arrivals
from repro.workload.driver import ConversationDriver
from repro.workload.tokenizer import SimpleTokenizer

__all__ = [
    "DatasetSpec",
    "SHAREGPT",
    "ULTRACHAT",
    "generate_conversations",
    "dataset_statistics",
    "poisson_arrivals",
    "exponential_think_times",
    "ConversationDriver",
    "SimpleTokenizer",
]
