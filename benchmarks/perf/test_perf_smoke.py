"""Smoke test for the benchmark harness (not part of tier-1).

Runs the quick suite once with a single repeat and asserts the
structural guarantees CI relies on: every scenario family present,
every scenario numerically equivalent, and the JSON artifact written
with a stable schema.
"""

import json

import pytest

from repro.bench import TOLERANCE, format_table, run_all, write_json
from repro.bench.harness import SCHEMA_VERSION, summarize

pytestmark = pytest.mark.slow


def test_quick_suite_equivalent_and_schema_stable(tmp_path):
    results = run_all(quick=True, seed=0, repeats=1)

    families = {x.family for x in results}
    assert families == {
        "decode", "prefill", "mixed", "e2e", "storage", "swap", "disk", "idle",
        "packing",
    }
    assert all(x.equivalent for x in results), format_table(results)
    assert all(x.max_abs_diff <= TOLERANCE for x in results)
    assert all(x.optimized_s > 0 and x.reference_s > 0 for x in results)

    # The ragged kernel and the coalesced swap path are represented and
    # bit-exact where exactness is promised (swap moves bytes verbatim).
    ragged = [x for x in results if x.optimized == "ragged_multi_token_attention"]
    assert ragged and any(x.family == "prefill" for x in ragged)
    assert any(x.family == "mixed" for x in ragged)
    swap = [x for x in results if x.family == "swap"]
    assert swap and all(x.max_abs_diff == 0.0 for x in swap)
    disk = [x for x in results if x.family == "disk"]
    assert disk and all(x.max_abs_diff == 0.0 for x in disk)
    # The long-idle-user scenario restores parked conversations from the
    # third tier bit-identically to the recompute baseline.
    idle = [x for x in results if x.family == "idle"]
    assert idle and all(x.max_abs_diff == 0.0 for x in idle)
    # The packing cache is bit-exact against the per-step rebuild.
    packing = [x for x in results if x.family == "packing"]
    assert packing and all(x.max_abs_diff == 0.0 for x in packing)

    summary = summarize(results)
    assert summary["all_equivalent"] is True

    out = tmp_path / "BENCH_kernels.json"
    write_json(results, str(out), quick=True, seed=0)
    payload = json.loads(out.read_text())
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["tolerance"] == TOLERANCE
    assert len(payload["results"]) == len(results)
    assert {x["name"] for x in payload["results"]} == {x.name for x in results}
    assert payload["summary"] == summary
    assert "history" not in payload


def test_scenario_list_is_deterministic():
    a = [x.name for x in run_all(quick=True, seed=0, repeats=1)]
    b = [x.name for x in run_all(quick=True, seed=0, repeats=1)]
    assert a == b
