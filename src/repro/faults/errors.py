"""Structured fault and degradation errors.

Every injected failure that escapes its recovery ladder surfaces as one of
these exceptions, carrying enough structure (site, conversation, attempt
count) for callers to degrade a *single* request while the rest of the
batch keeps running.
"""

from __future__ import annotations


class FaultError(RuntimeError):
    """Base class of all injected-fault errors."""


class ChunkCorruptionError(FaultError):
    """A CPU-store chunk failed its checksum on read.

    Attributes:
        conv_id: owning conversation.
        chunk_index: corrupted chunk's ordinal within the conversation.
    """

    def __init__(self, conv_id: int, chunk_index: int) -> None:
        self.conv_id = conv_id
        self.chunk_index = chunk_index
        super().__init__(
            f"checksum mismatch on CPU chunk (conv={conv_id}, "
            f"chunk={chunk_index})"
        )


class RequestFaultedError(FaultError):
    """A request exhausted its retry budget and failed individually.

    The serving layer raises this for exactly one request; sibling requests
    in the same batch are unaffected (graceful degradation).

    Attributes:
        conv_id: the failed request's conversation.
        site: the :class:`~repro.faults.plan.FaultSite` value that faulted.
        attempts: total attempts made (1 initial + retries).
    """

    def __init__(self, conv_id: int, site: object, attempts: int) -> None:
        self.conv_id = conv_id
        self.site = site
        self.attempts = attempts
        super().__init__(
            f"request for conversation {conv_id} failed at {site} "
            f"after {attempts} attempt(s)"
        )
