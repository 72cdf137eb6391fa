"""Benchmark-suite configuration.

Every benchmark regenerates one figure/table of the paper at reduced scale
(shorter simulated durations, fewer sweep points) and asserts the paper's
*qualitative* claims: who wins, by roughly what factor, where crossovers
fall.  The printed tables are the reduced-scale counterparts of the
figures; ``python -m repro report`` runs them at full scale and writes
``EXPERIMENTS.md``, which is generated and not committed.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark.

    Serving sweeps take tens of seconds of wall time; statistical timing
    over many rounds is meaningless for them (they are deterministic), so
    one round is both honest and affordable.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
