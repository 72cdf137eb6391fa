"""Host calibration probes: what this machine can do right now.

:func:`probe` measures three ceilings from outside the program, in well
under a second: dense float32 matmul at the bench model's shapes, a plain
copy, and a fancy-index gather of KV-shaped rows (the access pattern of
the paged kernels and of swap traffic).  ``run.py`` probes before and
after a workload; a drift of more than 10 % between the two means a noisy
neighbour, which explains a missed bound better than the code does.

:func:`slowness` times a fixed kernel of interpreter work and small numpy
calls — the mix the serving stack is made of — against its time on the
reference host.  This shared VM changes speed by up to 40 % for minutes at
a time (CPU seconds, not only wall seconds), so host-clock metrics are
divided by the slowness measured between their repetitions.  The kernel
uses nothing from ``src/``: a faster program does not make it faster.
"""

from __future__ import annotations

import functools
from time import perf_counter, process_time
from typing import Callable, Dict, Tuple

import numpy as np

#: Probes, in output order; also the ``host.*`` per-layer metric names.
PROBES = ("host.matmul_gflops", "host.memcpy_gbps", "host.gather_gbps")
DRIFT_WARNING = 0.10


def _best_rate(work: float, run: Callable[[], object], budget_s: float) -> float:
    """``work`` per second of the fastest of the runs that fit the budget:
    the ceiling, not the average."""
    best = float("inf")
    runs = 0
    deadline = perf_counter() + budget_s
    while runs < 3 or perf_counter() < deadline:
        begin = perf_counter()
        run()
        best = min(best, perf_counter() - begin)
        runs += 1
    return work / best


def probe(budget_s: float = 0.2) -> Dict[str, float]:
    """Measure the three ceilings, ``budget_s`` seconds each."""
    rng = np.random.default_rng(0)
    # [tokens, hidden] @ [hidden, intermediate] of the bench model.
    a = rng.standard_normal((256, 128), dtype=np.float32)
    b = rng.standard_normal((128, 384), dtype=np.float32)
    out = np.empty((256, 384), dtype=np.float32)
    # KV rows of the bench model: [slots, kv_heads, head_dim] float32.
    rows = rng.standard_normal((65536, 4, 16), dtype=np.float32)
    copy = np.empty_like(rows)
    index = rng.permutation(rows.shape[0])[:16384]
    gathered = np.empty((index.shape[0], 4, 16), dtype=np.float32)
    return {
        "host.matmul_gflops": _best_rate(
            2 * 256 * 128 * 384 / 1e9, lambda: np.matmul(a, b, out=out), budget_s
        ),
        "host.memcpy_gbps": _best_rate(
            2 * rows.nbytes / 1e9, lambda: np.copyto(copy, rows), budget_s
        ),
        "host.gather_gbps": _best_rate(
            2 * gathered.nbytes / 1e9,
            lambda: np.take(rows, index, axis=0, out=gathered),
            budget_s,
        ),
    }


def drift(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Relative change of each ceiling between two probes."""
    return {name: after[name] / before[name] - 1.0 for name in PROBES}


#: CPU seconds of the two halves of the speed kernel on the reference host
#: (this repo's two-core sandbox VM in its quiet state, numpy 2.4, py 3.11).
PY_REFERENCE_S = 0.0343
NP_REFERENCE_S = 0.0998


@functools.lru_cache(maxsize=None)
def _numpy_inputs() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode-step sized operands, built on first use and never mutated."""
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((65536, 4, 16)).astype(np.float32)
    return (
        rng.standard_normal((8, 128)),
        rng.standard_normal((128, 384)),
        rows,
        rng.permutation(rows.shape[0])[:512],
    )


def _python_kernel() -> None:
    table: Dict[int, int] = {}
    total = 0
    for i in range(200000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    sorted(range(50000), key=lambda x: (x * 7919) % 10007)


def _numpy_kernel() -> None:
    a, b, rows, index = _numpy_inputs()
    for _ in range(3000):
        x = a @ b
        rows[index]
        np.exp(x[:, :8]).sum(axis=1)


def _cpu_seconds(run: Callable[[], None], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = process_time()
        run()
        best = min(best, process_time() - begin)
    return best


def slowness() -> float:
    """CPU time of the speed kernel over its reference: 1.0 on the
    reference host, 1.4 when the host runs 40 % slower (0.4 s)."""
    return 0.5 * (
        _cpu_seconds(_python_kernel) / PY_REFERENCE_S
        + _cpu_seconds(_numpy_kernel) / NP_REFERENCE_S
    )
