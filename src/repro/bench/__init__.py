"""Performance-trajectory benchmark harness (``repro bench``).

Times the vectorized kernel layer (:mod:`repro.kernels.batched`) and the
:class:`~repro.model.transformer.PagedTransformer` fast paths against the
per-request reference implementations, verifies numerical equivalence
while doing so, and writes the machine-readable ``BENCH_kernels.json``
consumed by CI and tracked across PRs.
"""

from repro.bench.harness import (
    BenchResult,
    MIN_SPEEDUP,
    MIN_THRESHOLD_BATCH,
    PACKING_MIN_SPEEDUP,
    TOLERANCE,
    check_thresholds,
    format_table,
    run_all,
    summarize,
    write_json,
)

__all__ = [
    "BenchResult",
    "MIN_SPEEDUP",
    "MIN_THRESHOLD_BATCH",
    "PACKING_MIN_SPEEDUP",
    "TOLERANCE",
    "check_thresholds",
    "format_table",
    "run_all",
    "summarize",
    "write_json",
]
