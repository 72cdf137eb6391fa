"""The suite's per-test time limit (``tests/conftest.py``): a test that
spins fails, named, whether it swallows exceptions or runs under
Hypothesis, and the run goes on to the next test; a test stuck in C code,
where no exception can land, ends the run with its traceback."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The suite's own hooks with the limits cut to tenths of a second.
CONFTEST = """
import tests.conftest as suite
from tests.conftest import pytest_configure, pytest_runtest_call, pytest_unconfigure

suite.TIME_LIMIT_S = 0.1
suite.SHRINK_S = 0.1
suite.BACKSTOP_S = 0.2
"""

SPIN = """
from hypothesis import given, strategies as st


def test_spins():
    while True:
        pass


def test_swallows_exceptions():
    while True:
        try:
            while True:
                pass
        except Exception:
            pass


@given(st.integers())
def test_spins_under_hypothesis(n):
    while True:
        pass


def test_after():
    pass
"""

#: A loop inside one C call: the interpreter never gets to run a handler.
STUCK_IN_C = """
def test_stuck_in_c():
    sum(range(10**12))
"""


def run_pytest(tmp_path, name, source):
    (tmp_path / "conftest.py").write_text(CONFTEST)
    (tmp_path / name).write_text(source)
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
        PYTEST_DISABLE_PLUGIN_AUTOLOAD="1",
    )
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), name],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )


def test_a_spinning_test_fails_and_is_named(tmp_path):
    result = run_pytest(tmp_path, "test_spin.py", SPIN)
    out = result.stdout
    assert result.returncode == 1, out + result.stderr
    assert "3 failed, 1 passed" in out, out
    for name, limit in [
        ("test_spins", 0.1), ("test_swallows_exceptions", 0.1),
        ("test_spins_under_hypothesis", 0.2),
    ]:
        assert f"TimeLimitExceeded: test_spin.py::{name} ran past {limit:g} s" in out, out


def test_a_test_stuck_in_c_ends_the_run_with_its_traceback(tmp_path):
    result = run_pytest(tmp_path, "test_stuck.py", STUCK_IN_C)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Timeout (0:00:00.3" in result.stderr, result.stderr
    assert 'test_stuck.py", line 3 in test_stuck_in_c' in result.stderr, result.stderr
