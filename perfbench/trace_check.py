"""Traced-run command: per-layer metrics, their repeatability, tracing cost.

Usage (from the repository root)::

    python3 perfbench/trace_check.py [--workloads serve-asyncio] [--seed 1]

For each workload it makes one untraced run and two traced runs with the
same seed, prints the per-layer metrics of the first traced run, checks that
the per-layer figures fixed by the seed (call counts, events, ticks
accepted) repeat exactly in the second, and reports the tracing overhead as
traced ``op_p50_ms`` over untraced ``op_p50_ms``.
Exits 1 when a figure that must repeat does not.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from steady import SPEC, run_once

#: Units of the per-layer figures that are fixed by the seed.
EXACT_UNITS = ("count", "ratio")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        plain = run_once(workload, args.seed, trace=0)
        first = run_once(workload, args.seed, trace=1)
        second = run_once(workload, args.seed, trace=1)
        print(f"== {workload} (seed {args.seed})")
        for name, entry in first["metrics"].items():
            print(f"  {name:38} {entry['value']:14.4f} {entry['unit']}")
        untraced = plain["metrics"]["op_p50_ms"]["value"]
        traced = first["metrics"]["trace.op_p50_ms"]["value"]
        print(f"  tracing overhead: op p50 {traced:.1f} ms traced vs {untraced:.1f} ms untraced (x{traced / untraced:.2f})")
        moved = [
            name
            for name, entry in first["metrics"].items()
            if entry["unit"] in EXACT_UNITS
            and entry["value"] != second["metrics"][name]["value"]
        ]
        if moved:
            ok = False
            for name in moved:
                print(f"  NOT REPEATED: {name} {first['metrics'][name]['value']} vs {second['metrics'][name]['value']}")
        else:
            print("  every call count and event count repeated exactly")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
