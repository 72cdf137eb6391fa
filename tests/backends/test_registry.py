"""Lookup tests for ``repro.backends``."""

import pytest

from repro.backends import Backend, get_backend


class TestRegistry:
    def test_instances_are_shared(self):
        assert get_backend("paged") is get_backend("paged")

    def test_every_backend_names_itself(self):
        backend = get_backend("paged")
        assert isinstance(backend, Backend)
        assert backend.name == "paged"

    def test_unknown_name_lists_the_legal_ones(self):
        with pytest.raises(ValueError, match=r"unknown backend 'flash'.*'paged'"):
            get_backend("flash")
