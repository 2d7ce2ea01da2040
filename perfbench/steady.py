"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 5 [--workloads serve-asyncio,gateway-ticks]

Runs ``--runs`` pairs of untraced runs per workload, set A and set B back
to back, alternating which set goes first, every run with its own seed.
For each workload and end-to-end metric it prints each set's median and
quartiles, the spread (inter-quartile distance over the median) of each set
and of all runs together, how far set B's median is worse than set A's, and
whether both stay within the metric's bound in ``BENCHMARK.json``; every
run lasts ``run_seconds`` from that file.  The share of failed ops must be the same
in both sets.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Wall-clock limit on one benchmark run.
RUN_TIMEOUT = 300.0

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_once(workload: str, seed: int, trace: int = 0) -> dict:
    command = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT
    )
    if done.returncode != 0:
        raise SystemExit(f"run failed ({' '.join(command)}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results: Dict[str, Dict[str, List[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    seed = args.first_seed
    for index in range(args.runs):
        # A and B run back to back on each workload, so that a slow stretch
        # of the machine falls on both sets alike.
        order = ("A", "B") if index % 2 == 0 else ("B", "A")
        for workload in workloads:
            for label in order:
                started = time.perf_counter()
                result = run_once(workload, seed)
                result["seed"] = seed
                results[workload][label].append(result)
                seed += 1
                print(
                    f"{label} {workload} seed={result['seed']}: "
                    + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                    + f" failed={result['failed']}/{result['attempted']} correct={result['correct']}"
                    + f" wall={time.perf_counter() - started:.1f}s",
                    file=sys.stderr, flush=True,
                )

    all_ok = True
    header = f"{'workload':14} {'metric':12} {'A median [q1, q3]':>28} {'B median [q1, q3]':>28} {'sprA':>6} {'sprB':>6} {'spr10':>6} {'B-A':>7} {'bound':>6}  ok"
    print(header)
    for workload in workloads:
        sets = results[workload]
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {label: [r["metrics"][name]["value"] for r in runs] for label, runs in sets.items()}
            quart = {label: stats.quartiles(vals) for label, vals in values.items()}
            spreads = {label: stats.spread(vals) for label, vals in values.items()}
            together = stats.spread(values["A"] + values["B"])
            shift = worse_by(quart["A"][1], quart["B"][1], metric["better"])
            ok = shift <= bound and max(spreads.values()) <= bound
            all_ok &= ok
            cells = [
                f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (quart["A"], quart["B"])
            ]
            print(
                f"{workload:14} {name:12} {cells[0]:>28} {cells[1]:>28} "
                f"{spreads['A']:6.3f} {spreads['B']:6.3f} {together:6.3f} {shift:+7.3f} {bound:6.3f}  {'yes' if ok else 'NO'}"
            )
        shares = {
            label: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for label, runs in sets.items()
        }
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        same = shares["A"] == shares["B"]
        all_ok &= same and correct
        print(f"{workload:14} failed share A={shares['A']:.4f} B={shares['B']:.4f} correct={correct}  {'yes' if same and correct else 'NO'}")
    print("steady" if all_ok else "NOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
