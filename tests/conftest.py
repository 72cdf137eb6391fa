"""Settings shared by the whole test suite.

Property tests run derandomized by default: every run draws the same
examples, no example is replayed from a local ``.hypothesis`` database and
no wall-clock deadline applies, so the suite's verdict depends on the tree
alone.  Random exploration is a separate, non-gating run:

    python -m pytest -q --hypothesis-profile=explore
"""

from __future__ import annotations

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", derandomize=False, deadline=None)
settings.load_profile("derandomized")
