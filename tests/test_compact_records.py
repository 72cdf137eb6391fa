"""The records a simulation keeps by the thousand carry no ``__dict__``.

A rate sweep holds every chunk, conversation, request, transfer, event
and completion record of its engines until its results are read; as
slotted objects they take about a third less memory each.
"""

from __future__ import annotations

import pytest

from repro.core.engine import _PrefillInfo
from repro.gpu.pcie import Direction, TransferRecord
from repro.kvcache import Chunk, ConversationCache
from repro.serving.metrics import RequestRecord
from repro.serving.request import Conversation, Request, Turn
from repro.sim.events import Event

TURN = Turn(prompt_tokens=4, output_tokens=2)
CONVERSATION = Conversation(conv_id=0, turns=[TURN])

RECORDS = {
    "Chunk": Chunk(conv_id=0, index=0, start=0, end=1),
    "ConversationCache": ConversationCache(conv_id=0, chunk_size=32),
    "TransferRecord": TransferRecord(Direction.H2D, 1.0, 0.0, 0.0, 1.0),
    "RequestRecord": RequestRecord(0, 0, 0, 0.0, 1.0, 0.5, 4, 0, 2, 4),
    "Request": Request(request_id=0, conversation=CONVERSATION, turn_index=0, arrival_time=0.0),
    "Turn": TURN,
    "Conversation": CONVERSATION,
    "Event": Event(time=0.0, seq=0, callback=print),
    "_PrefillInfo": _PrefillInfo(recompute_tokens=0, prompt_tokens=4, total_context=4),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_slotted(name):
    record = RECORDS[name]
    assert "__slots__" in type(record).__dict__, name
    assert not hasattr(record, "__dict__"), name
