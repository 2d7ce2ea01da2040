"""Self-tests for the benchmark's own helpers.

Run from the repository root::

    python3 perfbench/selftest.py

They need none of the program's sources: the checks and generators they
cover are independent of the code under test.
"""

from __future__ import annotations

import bisect
import cProfile
import json
import math
import os
import pstats
import unittest

import checks
import inputs
import stats
from layers import LayerProfile, layer_of

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def rejected_by_window(batch, max_spread):
    """How many ticks of ``batch`` fall outside the coherence window (half of
    ``max_spread`` around the median of the ticks accepted before it) when
    pushed into an empty pool: the gateway's acceptance rule, restated."""
    pool = []
    rejected = 0
    for value in batch:
        if pool and abs(value - pool[len(pool) // 2]) > max_spread / 2:
            rejected += 1
            continue
        bisect.insort(pool, value)
    return rejected


class PercentileTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail([float(v) for v in range(99)], 0.90))
        self.assertEqual(stats.tail([float(v) for v in range(1, 101)], 0.90), 90.0)
        self.assertIsNone(stats.tail([1.0] * 999, 0.99))
        self.assertIsNotNone(stats.tail([1.0] * 1000, 0.99))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([9.0, 10.0, 10.0, 11.0]), 0.15)


class ChecksTest(unittest.TestCase):
    honest = [100.0, 101.5, 103.0]

    def test_clean_outputs_pass(self):
        hull = checks.relaxed_hull(self.honest, rho0=1.0, epsilon=1.0)
        self.assertEqual(hull, (96.0, 107.0))
        outputs = {0: 101.0, 1: 101.8, 2: 101.2}
        self.assertEqual(checks.check_agreement(outputs, range(3), 1.0), [])
        self.assertEqual(checks.check_in_hull(outputs.values(), hull), [])

    def test_flags_out_of_hull_value(self):
        hull = checks.relaxed_hull(self.honest, rho0=1.0, epsilon=1.0)
        self.assertEqual(len(checks.check_in_hull([101.0, 107.5], hull)), 1)
        self.assertEqual(len(checks.check_in_hull([95.9], hull)), 1)

    def test_flags_epsilon_breach_and_missing_decision(self):
        self.assertEqual(len(checks.check_agreement({0: 101.0, 1: 102.5}, range(2), 1.0)), 1)
        self.assertEqual(len(checks.check_agreement({0: 101.0}, range(2), 1.0)), 1)

    def test_flags_short_or_offline_signers(self):
        self.assertEqual(checks.check_signers([0, 2, 5], t=2, offline=[1]), [])
        self.assertEqual(len(checks.check_signers([0, 2], t=2, offline=[])), 1)
        self.assertEqual(len(checks.check_signers([0, 1, 2], t=2, offline=[1])), 1)

    def test_flags_dropped_duplicated_or_reordered_certificates(self):
        self.assertEqual(checks.check_stream([0, 1, 2], [0, 1, 2]), [])
        self.assertIn("dropped", checks.check_stream([0, 2], [0, 1, 2])[0])
        self.assertIn("duplicated", checks.check_stream([0, 1, 1, 2], [0, 1, 2])[0])
        self.assertIn("order", checks.check_stream([0, 2, 1], [0, 1, 2])[0])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.quote_epochs(3, 2, 7), inputs.quote_epochs(3, 2, 7))
        self.assertNotEqual(inputs.quote_epochs(3, 2, 7), inputs.quote_epochs(4, 2, 7))
        self.assertEqual(inputs.tick_batches(3, 2, 50, 7), inputs.tick_batches(3, 2, 50, 7))
        self.assertNotEqual(inputs.tick_batches(3, 2, 50, 7), inputs.tick_batches(4, 2, 50, 7))

    def test_tick_batches_stay_inside_the_coherence_window(self):
        # The gateway's window is half of max_spread = Delta = 2000 around
        # the pending pool's median; the pool starts empty every epoch.
        for seed in range(20):
            for batch in inputs.tick_batches(seed, 6, 1000, 7):
                self.assertEqual(rejected_by_window(batch, 2000.0), 0)
        self.assertEqual(rejected_by_window([0.0, 1.0, 1500.0], 2000.0), 1)

    def test_quotes_keep_their_checkpoint_cells(self):
        # Every node's quote stays in the same level-0 interval (rho0 = 10)
        # relative to the period, whatever the seed; the cheap alignment
        # spans 4 intervals and the costly one 5.
        def cells(seed):
            return [
                [math.floor((q % inputs.QUOTE_PERIOD) / 10.0) for q in epoch]
                for epoch in inputs.quote_epochs(seed, 14, 7)
            ]
        self.assertEqual(cells(1), cells(2))
        self.assertEqual([len(set(epoch)) for epoch in cells(1)], [4, 5] * 7)


def _busy():
    return sorted(range(20000), key=lambda v: -v)


class LayerTest(unittest.TestCase):
    def test_module_layers(self):
        self.assertEqual(layer_of(("/x/src/repro/sim/fastpath.py", 1, "f")), "sim.fastpath")
        self.assertEqual(layer_of(("/x/src/repro/oracle/__init__.py", 1, "f")), "oracle")
        self.assertEqual(layer_of(("/usr/lib/python3.11/asyncio/events.py", 1, "f")), "ext.asyncio")
        self.assertEqual(layer_of((os.path.join(BENCH_DIR, "run.py"), 1, "f")), "bench")

    def test_builtin_time_is_charged_to_the_caller(self):
        profile = cProfile.Profile()
        profile.enable()
        _busy()
        profile.disable()
        layers = LayerProfile(pstats.Stats(profile))
        # Only the profiler's own disable() call has no caller to charge.
        unassigned = layers.self_seconds.get("builtin", 0.0)
        self.assertLess(unassigned, 0.01 * layers.self_seconds["bench"])
        self.assertEqual(layers.calls(_busy), 1)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        import run

        with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
