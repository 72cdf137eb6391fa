#!/usr/bin/env python3
"""Compare two ``run.py --out`` files: is B worse than A beyond the bounds?

    python3 benchmarks/serving/compare.py A.json B.json

For every workload and end-to-end metric, prints both values, the ratio
B/A with its base, the bound from ``BENCHMARK.json`` and a verdict:

- ``ok``          B is not worse than A by more than the bound;
- ``regressed``   it is;
- ``unresolved``  the spread between a file's own repetitions (distance
                  between their quartiles, as a share of their median) is
                  wider than the bound, so the files cannot settle it.

Counts and sim-clock values that must repeat exactly are compared when
both files used the same seed, and every difference is listed.  Exits
non-zero on any ``regressed`` and on any increase of the failed share.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Dict[str, dict]:
    """Records by workload, from a one-workload or an ``all`` file."""
    with open(path) as handle:
        data = json.load(handle)
    return data["workloads"] if "workloads" in data else {data["workload"]: data}


def spread(reps: List[float]) -> float:
    """Quartile distance of the repetitions as a share of their median;
    0 where a metric has no per-repetition values (deterministic ones)."""
    if len(reps) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(reps, n=4)
    return (q3 - q1) / statistics.median(reps)


def verdict(a: dict, b: dict, meta: dict) -> str:
    worse = (b["value"] - a["value"]) / a["value"]
    if meta["better"] == "higher":
        worse = -worse
    if max(spread(a["reps"]), spread(b["reps"])) > meta["bound"]:
        return "unresolved"
    return "regressed" if worse > meta["bound"] else "ok"


def compare(a: Dict[str, dict], b: Dict[str, dict], manifest: dict) -> int:
    """Print the comparison; return the number of blocking findings."""
    blocking = 0
    for workload in (w["name"] for w in manifest["workloads"]):
        if workload not in a or workload not in b:
            continue
        ra, rb = a[workload], b[workload]
        if not (ra["comparable"] and rb["comparable"]):
            print(f"{workload}: smoke sizes, not comparable")
            continue
        for meta in manifest["end_to_end"]:
            name = meta["name"]
            if name not in ra["end_to_end"] or name not in rb["end_to_end"]:
                continue
            ea, eb = ra["end_to_end"][name], rb["end_to_end"][name]
            status = verdict(ea, eb, meta)
            blocking += status == "regressed"
            print(
                f"{workload:<15} {name:<15} A={ea['value']:<12.5g} "
                f"B={eb['value']:<12.5g} B/A={eb['value'] / ea['value']:.3f} "
                f"of {ea['value']:.5g} {meta['unit']:<5} "
                f"bound={meta['bound']:.0%} {meta['better']:<6} {status}"
            )
        share_a = ra["failed"] / ra["attempted"]
        share_b = rb["failed"] / rb["attempted"]
        if share_b > share_a:
            blocking += 1
            print(f"{workload}: failed share rose from {share_a:.4f} to {share_b:.4f}")
        if ra["seed"] == rb["seed"]:
            keys = sorted(set(ra["exact"]) & set(rb["exact"]))
            changed = [k for k in keys if ra["exact"][k] != rb["exact"][k]]
            print(
                f"{workload}: {len(keys) - len(changed)} of {len(keys)} "
                "repeat-exactly values identical"
            )
            for key in changed:
                print(f"  {key}: A={ra['exact'][key]!r} B={rb['exact'][key]!r}")
    return blocking


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(ROOT / "BENCHMARK.json") as handle:
        manifest = json.load(handle)
    blocking = compare(load(argv[0]), load(argv[1]), manifest)
    print(f"{blocking} blocking finding(s)")
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
