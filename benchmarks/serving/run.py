#!/usr/bin/env python3
"""The serving benchmark: one command, every metric, outputs checked.

    python3 benchmarks/serving/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--smoke] [--out FILE]

``--trace 0`` (default) measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and reports the per-layer metrics;
``--traced`` does both.  With one workload the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero if an output check
or a workload-shape guard fails, or if any request failed.

Metric names, units and directions are declared in ``BENCHMARK.json`` at
the root of the repository; ``README.md`` beside this file defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def pin_environment() -> None:
    """One BLAS thread and the default backend, set before numpy loads:
    the host has two shared cores, and threads that come and go are the
    largest source of run-to-run spread."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("REPRO_BACKEND", None)
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def parse_args(argv: List[str], manifest: dict) -> argparse.Namespace:
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the benchmark's own input generators")
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="how long the untraced pass keeps repeating")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="both passes in one run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; numbers not comparable")
    parser.add_argument("--out", help="write the full record (and spans) here")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace, manifest: dict) -> dict:
    """Run one workload in this process and return its full record."""
    pin_environment()
    try:
        import numpy
        import hostprobe
        import workloads
    except ImportError as error:
        sys.exit(f"cannot import the program from {ROOT / 'src'}: {error}")

    # The smoke sizes are for the self-test: a shorter probe is enough.
    probe_s = 0.05 if args.smoke else 0.2
    before = hostprobe.probe(probe_s)
    passes = [False, True] if args.traced else [args.trace == "1"]
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "comparable": not args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "attempted": 0,
        "failed": 0,
        "failures": [],
        "end_to_end": {},
        "per_layer": {},
        "exact": {},
    }
    spans = None
    for trace in passes:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, trace, args.smoke
        )
        record["attempted"] += result.attempted
        record["failed"] += result.failed
        record["failures"] += result.failures
        record["exact"].update(result.exact)
        record.setdefault("sizes", result.sizes)
        if trace:
            record["per_layer"] = result.per_layer
            spans = result.spans
        else:
            record["wall_over_cpu"] = result.wall_over_cpu
            record["slowness"] = result.slowness
            record["end_to_end"] = {
                name: {"value": value, "samples": samples, "reps": reps}
                for name, (value, samples, reps) in result.end_to_end.items()
            }
            # Linux reports ru_maxrss in KiB.
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["end_to_end"]["peak_rss_mb"] = {
                "value": rss, "samples": 1, "reps": [],
            }
    after = hostprobe.probe(probe_s)
    record["host"] = {"before": before, "after": after}
    if record["per_layer"]:
        for name in hostprobe.PROBES:
            record["per_layer"][name] = (before[name] + after[name]) / 2.0
    for name, change in hostprobe.drift(before, after).items():
        if abs(change) > hostprobe.DRIFT_WARNING:
            print(
                f"warning: {name} moved {change:+.1%} during the run "
                "(noisy neighbour?); timings of this run are suspect",
                file=sys.stderr,
            )
    record["correct"] = not record["failures"] and record["failed"] == 0
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
        if spans is not None:
            with open(args.out + ".spans.json", "w") as handle:
                json.dump(spans, handle)
    return record


def print_record(record: dict, manifest: dict) -> None:
    """Every metric by name, with unit, direction and sample count."""
    note = "" if record["comparable"] else "  [smoke sizes: NOT comparable]"
    print(
        f"== {record['workload']}  seed={record['seed']}  "
        f"repetitions={record['sizes'].get('repetitions')}{note} =="
    )
    declared = {
        kind: {m["name"]: m for m in manifest[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    if record["end_to_end"]:
        print(
            "end-to-end (tracing off; host-clock timings are CPU seconds of this "
            f"process / host slowness {record['slowness']:.3f}; "
            f"wall/CPU = {record['wall_over_cpu']:.3f})"
        )
        for name, entry in record["end_to_end"].items():
            meta = declared["end_to_end"][name]
            print(
                f"  {name:<34} {entry['value']:>14.4f} {meta['unit']:<8} "
                f"{meta['better']:<7} n={entry['samples']}"
            )
    if record["per_layer"]:
        overhead = record["per_layer"]["trace.overhead_ratio"]
        print(
            "per-layer (traced pass, one repetition; *_s are self times; "
            f"tracing overhead {overhead:.3f}x applies to all of them; "
            "bytes are computed from array shapes)"
        )
        for name, value in record["per_layer"].items():
            meta = declared["per_layer"][name]
            print(f"  {name:<38} {value:>16.6g} {meta['unit']:<8} {meta['better']}")
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(
        f"attempted={record['attempted']} failed={record['failed']} "
        f"correct={record['correct']}"
    )


def contract_line(record: dict, manifest: dict) -> str:
    """The driver's result object: exactly four keys."""
    units = {
        m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in manifest[kind]
    }
    metrics: Dict[str, dict] = {}
    for name, entry in record["end_to_end"].items():
        metrics[name] = {"value": entry["value"], "unit": units[name]}
    for name, value in record["per_layer"].items():
        metrics[name] = {"value": value, "unit": units[name]}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def run_all(args: argparse.Namespace, manifest: dict) -> int:
    """Each workload in its own process, so peak RSS and allocator state
    do not leak from one into the next."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    records = {}
    for workload in (w["name"] for w in manifest["workloads"]):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
        ]
        command += ["--traced"] * args.traced + ["--smoke"] * args.smoke
        part = f"{args.out}.{workload}.part" if args.out else None
        if part:
            command += ["--out", part]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except ValueError:
            print(f"{workload}: exited with code {done.returncode} and no result")
            summary["correct"] = False
            continue
        summary["workloads"][workload] = {
            key: last[key] for key in ("correct", "attempted", "failed")
        }
        summary["correct"] &= last["correct"] and done.returncode == 0
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        if part:
            with open(part) as handle:
                records[workload] = json.load(handle)
            os.remove(part)
            spans = Path(part + ".spans.json")
            if spans.exists():
                spans.rename(f"{args.out}.{workload}.spans.json")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workloads": records}, handle, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: List[str]) -> int:
    manifest = load_manifest()
    args = parse_args(argv, manifest)
    if args.workload == "all":
        return run_all(args, manifest)
    record = run_one(args, manifest)
    print_record(record, manifest)
    print(contract_line(record, manifest))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
