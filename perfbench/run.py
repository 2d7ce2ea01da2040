"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-asyncio --seed 1 --seconds 38 --trace 0

``--seconds`` sets how many whole rounds of ops the timed window runs (see
:func:`window_rounds`).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` profiles the timed window and prints the per-layer metrics
instead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; human-readable lines
before it and on standard error describe the run.  See
``perfbench/README.md`` for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List

from inputs import alignment
from layers import LayerProfile, Profiler
from stats import median, tail

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("serve-asyncio", "gateway-ticks")

#: Fresh interpreters started per untraced run to time set-up; the median
#: is reported.
SETUP_PROBES = 3

#: Seconds a set-up probe may take before it is killed.
PROBE_TIMEOUT = 60.0

#: How many times slower a traced op is than an untraced one, roughly.
TRACE_SLOWDOWN = 3

#: End-to-end metrics: name -> unit.  Every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run, normalised per op): name -> unit.  A layer
#: a workload does not reach reports 0.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.build_ms": "ms",
    "sim.events": "count",
    "sim.fastpath.self_ms": "ms",
    "sim.asyncio_runtime.dispatch_calls": "count",
    "sim.asyncio_runtime.self_ms": "ms",
    "net.messages": "count",
    "net.size_calls": "count",
    "net.self_ms": "ms",
    "core.bundling.encode_calls": "count",
    "core.bundling.decode_calls": "count",
    "core.bundling.decodes_per_encode": "ratio",
    "core.bundling.self_ms": "ms",
    "core.delphi.on_message_calls": "count",
    "core.delphi.self_ms": "ms",
    "core.checkpoints.self_ms": "ms",
    "protocols.binaa.handle_calls": "count",
    "protocols.binaa.self_ms": "ms",
    "protocols.base.wrap_calls": "count",
    "protocols.base.unwrap_calls": "count",
    "protocols.base.self_ms": "ms",
    "core.dora.self_ms": "ms",
    "crypto.sign_calls": "count",
    "crypto.verify_calls": "count",
    "crypto.self_ms": "ms",
    "oracle.service.draw_ms": "ms",
    "oracle.service.agree_ms": "ms",
    "oracle.service.attest_ms": "ms",
    "oracle.service.parity_ms": "ms",
    "oracle.smr.submit_calls": "count",
    "workloads.ticks.push_ms": "ms",
    "workloads.ticks.accepted": "count",
    "workloads.ticks.rejected": "count",
    "oracle.gateway.publish_ms": "ms",
    "oracle.gateway.deliver_p50_ms": "ms",
    "oracle.gateway.requests": "count",
    "oracle.gateway.evictions": "count",
    "net.http_ws.self_ms": "ms",
    "gc.collected_objects": "count",
    "gc.collect_ms": "ms",
    "trace.op_p50_ms": "ms",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="nominal length of the timed window; sets its fixed count of rounds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup",
        action="store_true",
        help="internal: set the workload up, report readiness, tear down on stdin EOF",
    )
    return parser.parse_args(argv)


def _require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program sources under {SRC}")


def _import_program():
    """Put this checkout's ``src`` first on the path and import the
    workloads (which import the program)."""
    _require_sources()
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402 - needs SRC on the path

    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    return workloads


def _setup(name: str, seed: int):
    started = time.perf_counter()
    workloads = _import_program()
    imported = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed)
    workload.build()
    built = time.perf_counter()
    return workload, imported - started, built - imported


def _probe(args: argparse.Namespace) -> int:
    workload, import_s, build_s = _setup(args.workload, args.seed)
    print(f"READY {import_s:.6f} {build_s:.6f}", flush=True)
    sys.stdin.read()
    workload.close()
    return 0


def _probe_setup_times(args: argparse.Namespace) -> List[float]:
    """Seconds from starting a fresh interpreter until the workload's first
    op is ready, once per probe."""
    samples = []
    command = [
        sys.executable, os.path.abspath(__file__), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        child = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdin.close()
            child.wait(timeout=PROBE_TIMEOUT)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if not line.startswith("READY") or child.returncode != 0:
            raise SystemExit(f"error: set-up probe failed (exit {child.returncode}): {line!r}")
        samples.append(ready - started)
    return samples


def _pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts, on one CPU.  The ops
    run one thread at a time (the gateway's loop thread waits while its
    epoch worker runs), so they never need two CPUs; left free, the
    scheduler moves the threads between the box's CPUs, whose speeds
    differ with what else the shared host runs on them."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def window_rounds(workload, seconds: float, traced: bool) -> int:
    """Whole rounds a run does: ``seconds`` worth of the workload's nominal
    round time, a fixed count so that every run with the same ``--seconds``
    does the same work and leaves the same garbage behind.  A traced run,
    about three times slower, does a third of them."""
    rounds = max(1, round(seconds / workload.round_seconds))
    return max(1, rounds // TRACE_SLOWDOWN) if traced else rounds


class CollectorTally:
    """Time taken and objects freed by every garbage collection in the
    process, automatic or explicit."""

    def __init__(self) -> None:
        self.collected = 0
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collected += info["collected"]


def _timed_window(workload, rounds: int):
    """Run ``rounds`` whole rounds of ops.  The program manages its own
    memory: the benchmark neither collects nor freezes the heap.  Returns
    the op latencies (ms), the window length (s) and the ops that raised."""
    op_ms: List[float] = []
    errors: Dict[int, str] = {}
    clock = time.perf_counter
    opened = clock()
    for index in range(rounds * workload.round_size):
        started = clock()
        try:
            workload.op(index)
        except Exception:  # noqa: BLE001 - an op that raises counts as failed
            errors[index] = traceback.format_exc(limit=3)
        op_ms.append((clock() - started) * 1000.0)
    return op_ms, clock() - opened, errors


def main(argv: List[str]) -> int:
    args = _parse(argv)
    _require_sources()
    if args.probe_setup:
        return _probe(args)
    setup_samples = [] if args.trace else _probe_setup_times(args)
    _pin_to_one_cpu()
    workload, import_s, build_s = _setup(args.workload, args.seed)
    rounds = window_rounds(workload, args.seconds, bool(args.trace))
    profiler = Profiler() if args.trace else None
    collector = CollectorTally()
    try:
        workload.warm_up()
        workload.begin_window()
        if profiler is not None:
            gc.callbacks.append(collector)
            profiler.start()
        op_ms, window_s, errors = _timed_window(workload, rounds)
        if profiler is not None:
            profiler.stop()
            gc.callbacks.remove(collector)
        workload.end_window(profiler.stop_this_thread if profiler else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = len(op_ms)
        per_op, run_problems = workload.findings(ops)
        for index, message in errors.items():
            per_op.setdefault(index, []).append(message)
        failed = sorted(index for index, problems in per_op.items() if problems)
        for index in failed[:5]:
            log(f"op {index} failed: {'; '.join(per_op[index])}")
        for problem in run_problems:
            log(f"run check failed: {problem}")

        p50 = median(op_ms)
        p90 = tail(op_ms, 0.90)
        costly = sum(alignment(slot) for slot in range(workload.round_size))
        print(
            f"# {args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds of "
            f"{workload.round_size} ops ({workload.round_size - costly} cheap, {costly} costly "
            f"alignment), {ops} ops in {window_s:.2f}s, op p50 {p50:.2f} ms"
            + (f", p90 {p90:.2f} ms" if p90 is not None else " (p90 needs >= 100 ops)")
            + f", {len(failed)} failed"
        )
        if profiler is not None:
            values = dict.fromkeys(PER_LAYER, 0.0)
            values.update(workload.layer_metrics(LayerProfile(profiler.stats()), ops, op_ms))
            values.update({
                "setup.import_s": import_s,
                "setup.build_ms": build_s * 1000.0,
                "gc.collected_objects": collector.collected / ops,
                "gc.collect_ms": collector.seconds * 1000.0 / ops,
                "trace.op_p50_ms": p50,
            })
            units = PER_LAYER
        else:
            print(
                f"# setup probes (s): {' '.join(f'{s:.3f}' for s in setup_samples)}; "
                f"this process: import {import_s:.3f} s, build {build_s * 1000.0:.2f} ms"
            )
            values = {
                "setup_s": statistics.median(setup_samples),
                "ops_per_s": ops / window_s,
                "op_p50_ms": p50,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
    finally:
        workload.close()
    print(json.dumps({
        "correct": not run_problems,
        "attempted": ops,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
