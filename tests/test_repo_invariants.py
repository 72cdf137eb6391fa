"""Repo invariants that no behavioural test notices when broken.

- *Sim-clock purity.*  Code that runs on the discrete-event clock never
  reads the wall clock.  A wall-clock read that only feeds a log moves no
  simulated output, so no run-based test fails on it; seeded runs stay
  byte-reproducible only while these trees import neither ``time`` nor
  ``datetime``.  Wall-clock measurement lives in ``repro.obs``.
- *Fault draws stay on the ladder.*  ``.fires()`` is called only in the
  modules that own the retry → recompute → per-request-failure ladder,
  so every modeled I/O failure is recoverable.  A transfer primitive in
  ``repro.gpu`` that drew a fault itself would fail outside the ladder,
  on a path no fault-armed test happens to reach.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Trees that run on the simulated clock.
SIM_CLOCK_TREES = ("sim", "core", "serving", "kvcache", "gpu")
WALL_CLOCK_MODULES = frozenset({"time", "datetime"})

#: The modules that own the recovery ladder, relative to ``src/repro``.
LADDER_OWNERS = (
    "faults/",
    "core/engine.py",
    "kvcache/manager.py",
    "kvcache/storage.py",
)


def _modules(*trees):
    """``(path relative to src/repro, parsed module)`` for every file."""
    for tree in trees:
        for path in sorted((SRC / tree).rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            yield rel, ast.parse(path.read_text(encoding="utf-8"), rel)


def test_sim_clock_code_never_imports_a_wall_clock():
    offenders = []
    for rel, module in _modules(*SIM_CLOCK_TREES):
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{rel}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] in WALL_CLOCK_MODULES
            ]
    assert offenders == []


def test_fault_draws_stay_in_the_ladder_owners():
    draws = [
        f"{rel}:{node.lineno}"
        for rel, module in _modules(".")
        for node in ast.walk(module)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fires"
    ]
    assert draws, "the walk found no fault draws at all"
    assert [d for d in draws if not d.startswith(LADDER_OWNERS)] == []
