"""Self-test of the serving benchmark (not part of the tier-1 testpaths).

    python -m pytest benchmarks/serving -q

Runs the real entry point at ``--smoke`` sizes, so it checks the harness
(schema, determinism, checks that fail when they should, accounting that
closes) and says nothing about performance.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(out: Path, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
            "--traced", "--seconds", "0.2", "--seed", str(seed), "--out", str(out),
        ],
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run of every workload, both passes, seed 0."""
    out = tmp_path_factory.mktemp("bench") / "a.json"
    # CPU seconds of the children, not wall seconds: the bound is on the
    # work the smoke sizes ask for, not on what else the host is doing.
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = run_smoke(out, seed=0)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    elapsed = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return {
        "elapsed": elapsed,
        "stdout": done.stdout,
        "records": json.loads(out.read_text())["workloads"],
        "out": out,
    }


def test_smoke_is_quick_and_marked_not_comparable(smoke):
    assert smoke["elapsed"] < 30.0
    assert set(smoke["records"]) == set(workloads.WORKLOADS)
    assert all(not r["comparable"] for r in smoke["records"].values())
    assert smoke["stdout"].count("NOT comparable") == len(workloads.WORKLOADS)
    summary = json.loads(smoke["stdout"].rstrip("\n").split("\n")[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0


def test_manifest_declares_exactly_what_is_printed(smoke):
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]
    ] == layers.PER_LAYER
    assert set(layers.SELF_TIME.values()) <= {n for n, _, _ in layers.PER_LAYER}
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    per_layer = {m["name"] for m in MANIFEST["per_layer"]}
    for record in smoke["records"].values():
        assert set(record["end_to_end"]) == end_to_end
        assert set(record["per_layer"]) == per_layer
        assert all(entry["value"] > 0 for entry in record["end_to_end"].values())


def test_driver_contract_line():
    """``--trace 0`` prints every end-to-end metric and nothing else."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "chat_recompute",
            "--smoke", "--seconds", "0.2", "--seed", "3", "--trace", "0",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0


def test_counts_and_sim_clock_repeat_exactly_and_follow_the_seed(smoke, tmp_path):
    same = run_smoke(tmp_path / "b.json", seed=0)
    other = run_smoke(tmp_path / "c.json", seed=1)
    assert same.returncode == 0 and other.returncode == 0
    same = json.loads((tmp_path / "b.json").read_text())["workloads"]
    other = json.loads((tmp_path / "c.json").read_text())["workloads"]
    counts = [
        n for n, unit, _ in layers.PER_LAYER
        if unit in ("count", "B") or n.startswith("engine.nlat") or n == "engine.ttft_ms_p90"
    ]
    for name, record in smoke["records"].items():
        assert record["exact"] == same[name]["exact"]
        assert record["exact"] != other[name]["exact"]
        for metric in counts:
            assert record["per_layer"][metric] == same[name]["per_layer"][metric], metric


def test_self_times_add_up_to_the_traced_wall(smoke):
    for name, record in smoke["records"].items():
        layer = record["per_layer"]
        total = sum(layer[metric] for metric in set(layers.SELF_TIME.values()))
        assert total == pytest.approx(layer["trace.wall_s"], rel=0.02), name


def test_shape_guards_hold_at_smoke_sizes(smoke):
    resident = smoke["records"]["chat_resident"]["per_layer"]
    assert resident["manager.swapped_out_tokens"] == 0
    assert resident["cpu_store.calls"] == 0
    swap = smoke["records"]["chat_swap"]["per_layer"]
    assert swap["manager.recomputed_tokens"] == 0
    assert swap["manager.cpu_hit_tokens"] / swap["manager.lookup_tokens"] >= 0.6
    recompute = smoke["records"]["chat_recompute"]["per_layer"]
    share = recompute["manager.recomputed_tokens"] / recompute["manager.lookup_tokens"]
    assert 0.25 <= share <= 0.6


def test_wrong_reference_fails_loudly(monkeypatch):
    """The first repetition of a chat run is the reference; corrupt one
    token of it and every measured repetition must be reported."""
    real = workloads.chat_repetition
    seen = []

    def corrupt_reference(*args, **kwargs):
        rep = real(*args, **kwargs)
        if not seen:
            first = rep.transcript[0]
            first[next(iter(first))][0] ^= 1
        seen.append(rep)
        return rep

    monkeypatch.setattr(workloads, "chat_repetition", corrupt_reference)
    result = workloads.run_workload(
        "chat_swap", seed=0, seconds=0.0, trace=False, smoke=True
    )
    assert any("transcript differs at chat_batch call 0" in f for f in result.failures)


def test_shape_guard_rejects_a_workload_that_lost_its_shape():
    failures = []
    stats = dict.fromkeys(layers.MANAGER_COUNTERS, 0) | {"lookup_tokens": 100}
    workloads.check_chat_shape("chat_recompute", stats, failures)
    workloads.check_chat_shape(
        "chat_resident", stats | {"swapped_out_tokens": 32}, failures
    )
    workloads.check_chat_shape("chat_swap", stats | {"recomputed_tokens": 1}, failures)
    assert len(failures) == 4


def test_compare_on_result_files(smoke, capsys):
    records = compare.load(str(smoke["out"]))
    assert compare.compare(records, records, MANIFEST) == 0
    assert capsys.readouterr().out.count("not comparable") == len(records)
    full = {name: dict(r, comparable=True) for name, r in records.items()}
    assert compare.compare(full, full, MANIFEST) == 0
    assert " ok" in capsys.readouterr().out
    worse = {name: dict(r, failed=r["failed"] + 1) for name, r in full.items()}
    assert compare.compare(full, worse, MANIFEST) == len(full)


def test_compare_verdicts():
    meta = {"better": "lower", "bound": 0.10}
    base = {"value": 100.0, "reps": [99.0, 100.0, 101.0, 100.0]}
    assert compare.verdict(base, {"value": 105.0, "reps": base["reps"]}, meta) == "ok"
    assert compare.verdict(base, {"value": 115.0, "reps": base["reps"]}, meta) == "regressed"
    noisy = {"value": 115.0, "reps": [80.0, 100.0, 120.0, 140.0]}
    assert compare.verdict(base, noisy, meta) == "unresolved"
    higher = {"better": "higher", "bound": 0.10}
    assert compare.verdict(base, {"value": 85.0, "reps": []}, higher) == "regressed"
    assert compare.verdict(base, {"value": 120.0, "reps": []}, higher) == "ok"
