"""Tests for requests, turns and conversations."""

import pytest

from repro.serving import Conversation, Request, RequestState, Turn


def make_conversation(turn_sizes=((10, 20), (5, 30), (8, 12)), conv_id=1):
    return Conversation(
        conv_id=conv_id,
        turns=[Turn(prompt_tokens=p, output_tokens=o) for p, o in turn_sizes],
    )


class TestTurn:
    def test_valid(self):
        turn = Turn(prompt_tokens=5, output_tokens=10)
        assert turn.prompt_tokens == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            Turn(prompt_tokens=0, output_tokens=10)
        with pytest.raises(ValueError):
            Turn(prompt_tokens=5, output_tokens=0)


class TestConversation:
    def test_history_accumulates_prompt_and_output(self):
        conv = make_conversation()
        assert conv.history_tokens(0) == 0
        assert conv.history_tokens(1) == 30
        assert conv.history_tokens(2) == 65
        assert conv.total_tokens() == 85

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Conversation(conv_id=1, turns=[])

    def test_think_times_default_to_zero(self):
        conv = make_conversation()
        assert conv.think_times == [0.0, 0.0]

    def test_think_times_length_checked(self):
        with pytest.raises(ValueError):
            Conversation(
                conv_id=1,
                turns=[Turn(1, 1), Turn(1, 1)],
                think_times=[1.0, 2.0],
            )


class TestRequest:
    def make_request(self, turn_index=1):
        return Request(
            request_id=7,
            conversation=make_conversation(),
            turn_index=turn_index,
            arrival_time=100.0,
        )

    def test_derived_fields(self):
        req = self.make_request()
        assert req.conv_id == 1
        assert req.prompt_tokens == 5
        assert req.history_tokens == 30
        assert req.output_tokens == 30
        assert req.total_context == 65
        assert not req.is_last_turn
        assert self.make_request(turn_index=2).is_last_turn

    def test_requests_compare_by_identity(self):
        a, b = self.make_request(), self.make_request()
        assert a == a and a != b
        running = [a, b]
        running.remove(b)
        assert running == [a] and running[0] is a

    def test_initial_state(self):
        req = self.make_request()
        assert req.state is RequestState.WAITING
        assert req.generated_tokens == 0

    def test_latency_requires_finish(self):
        req = self.make_request()
        with pytest.raises(RuntimeError):
            req.latency()
        req.finish_time = 109.0
        assert req.latency() == pytest.approx(9.0)
        assert req.normalized_latency() == pytest.approx(0.3)


class TestAttentionRequestHelpers:
    def test_query_positions_and_visible_context(self):
        import numpy as np

        from repro.kernels import AttentionRequest

        request = AttentionRequest(
            query=np.zeros((3, 2, 4)), slots=list(range(10)), query_offset=4
        )
        assert list(request.query_positions()) == [4, 5, 6]
        assert request.visible_context_len() == 7
        assert request.num_heads == 2
        assert request.head_dim == 4
        assert request.context_len == 10

    def test_default_offset_is_trailing(self):
        import numpy as np

        from repro.kernels import AttentionRequest

        request = AttentionRequest(query=np.zeros((3, 2, 4)), slots=list(range(10)))
        assert request.query_offset == 7
        assert request.visible_context_len() == 10
