"""Settings shared by the whole test suite.

Property tests run derandomized by default: every run draws the same
examples, no example is replayed from a local ``.hypothesis`` database and
no wall-clock deadline applies, so the suite's verdict depends on the tree
alone.  Random exploration is a separate, non-gating run:

    python -m pytest -q --hypothesis-profile=explore

Every test runs under a time limit of :data:`TIME_LIMIT_S` (a Hypothesis
test gets :data:`SHRINK_S` more): a test that stops making progress
fails, named, instead of hanging the suite.  An interval timer raises
:class:`TimeLimitExceeded` in the test; if that cannot land (a hang inside
C code holds the interpreter), ``faulthandler`` dumps every thread's
traceback and ends the process :data:`BACKSTOP_S` later.
"""

from __future__ import annotations

import faulthandler
import os
import signal
import sys
import threading

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", derandomize=False, deadline=None)
settings.load_profile("derandomized")

#: Seconds a test may run: several times what the slowest tier-1 test takes.
TIME_LIMIT_S = 60.0
#: Seconds more for a Hypothesis test: once an example fails, Hypothesis
#: shrinks it for up to five minutes, and a limit that cut the shrinking
#: short would report the limit instead of the failure.
SHRINK_S = 300.0
#: Seconds past the limit before ``faulthandler`` ends the process.
BACKSTOP_S = 30.0


#: A copy of the terminal's stderr, for ``faulthandler``: while a test
#: runs, output capture has redirected file descriptor 2.
_stderr = None


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(_stderr)


class TimeLimitExceeded(BaseException):
    """A test ran past :data:`TIME_LIMIT_S`.

    A ``BaseException``, so neither the test's own ``except Exception``
    nor Hypothesis (which would shrink, re-running the spin) catches it.
    """


def _lined(tb):
    """``tb`` without its entries whose line is unknown: the alarm can land
    on an instruction that has none, and pytest fails on such an entry
    when it reports the test (an ``INTERNALERROR`` that ends the run)."""
    kept = []
    while tb is not None:
        if tb.tb_lineno is not None:
            kept.append(tb)
        tb = tb.tb_next
    for entry, after in zip(kept, kept[1:] + [None]):
        entry.tb_next = after
    return kept[0] if kept else None


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer") or (
        threading.current_thread() is not threading.main_thread()
    ):
        return (yield)

    limit = TIME_LIMIT_S
    if getattr(item.obj, "is_hypothesis_test", False):
        limit += SHRINK_S

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {limit:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    # Repeats each second past the limit, in case the first is swallowed.
    signal.setitimer(signal.ITIMER_REAL, limit, 1.0)
    faulthandler.dump_traceback_later(limit + BACKSTOP_S, exit=True, file=_stderr)
    try:
        return (yield)
    except TimeLimitExceeded as exc:
        raise exc.with_traceback(_lined(exc.__traceback__))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, previous)
