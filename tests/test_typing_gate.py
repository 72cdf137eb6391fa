"""The typed-core gate, run locally when mypy is importable.

CI installs mypy in the typed-core job and runs ``mypy -p repro`` with
the pyproject configuration (strict on ``repro.sim``, ``repro.faults``
and ``repro.obs.histogram``); this test runs the identical check so the
gate is reproducible on a dev box, and skips — rather than fails — where
mypy is not installed.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

pytest.importorskip("mypy", reason="mypy not installed; CI runs this gate")


@pytest.mark.slow
def test_typed_core_passes_mypy():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "-p", "repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
