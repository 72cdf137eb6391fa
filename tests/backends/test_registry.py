"""Tests for ``repro.backends``: one backend, chosen by no name lookup."""

import pytest

from repro.backends import Backend
from repro.core.server import StatefulChatServer
from repro.model.config import tiny_opt_config


class TestRegistry:
    def test_every_backend_names_itself(self):
        backend = StatefulChatServer(tiny_opt_config(), chunk_size=16).model.backend
        assert isinstance(backend, Backend)
        assert backend.name == "paged"

    def test_unknown_name_lists_the_legal_ones(self):
        with pytest.raises(ValueError, match=r"unknown backend 'flash'.*'paged'"):
            StatefulChatServer(tiny_opt_config(), backend="flash", chunk_size=16)
