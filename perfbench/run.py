#!/usr/bin/env python3
"""Closed-loop benchmark of the twreach reachability pipeline.

    python3 perfbench/run.py --workload ktree-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client in one single-threaded process sends its next op only after the
previous one returns. `--workload all` runs every workload in a fresh child
process, so `peak_rss_mib` belongs to one workload.

With `--trace 0` the run makes passes over every instance for about
`--seconds` of op time, times the set-up in three rounds, and reports the
end-to-end metrics, every time scaled to a reference host speed
(hostspeed.py). With `--trace 1` it runs a fixed
list of `trace_ops` ops twice, untraced and then traced, so every count
repeats exactly for a seed; it reports the per-layer metrics and the tracing
overhead, and writes the spans under perfbench/out/.

Every op's answer is checked against graph.bfs_reachable outside the timed
region, and every op's (reachable, iterations, relax_work, peak_bits,
balanced-tree SHA-1) joins a fingerprint that must repeat whenever an
instance repeats. The last line of stdout is one JSON object. The exit code
is 1 when an op raised, an answer was wrong, a fingerprint changed or the
pinned balanced-tree hashes differ, and 2 when the checkout has no sources.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NAMES = ("ktree-cold", "ktree-multiquery", "small-mixed")


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own child process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "twreach" / "__init__.py").is_file():
        print(f"perfbench: no twreach sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    import bench
    return bench.run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
