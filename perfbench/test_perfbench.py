"""Tests for the benchmark's own arithmetic and a tiny-scale smoke of every
workload. Run from the repository root:

    python3 perfbench/test_perfbench.py

The smoke tests build the driver on first use (see run.py).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_samples_beyond_uses_nearest_rank(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.samples_beyond(99, 90), 9)
        self.assertEqual(run.samples_beyond(1000, 99), 10)
        self.assertEqual(run.samples_beyond(10, 50), 5)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.highest_percentile(19))
        self.assertEqual(run.highest_percentile(20), 50)
        self.assertEqual(run.highest_percentile(99), 50)
        self.assertEqual(run.highest_percentile(100), 90)
        self.assertEqual(run.highest_percentile(199), 90)
        self.assertEqual(run.highest_percentile(200), 95)
        self.assertEqual(run.highest_percentile(999), 95)
        self.assertEqual(run.highest_percentile(1000), 99)
        self.assertEqual(run.highest_percentile(10000), 99.9)

    def test_percentile_is_a_sample(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7.0], 90), 7.0)

    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            run.median([])

    def test_p90_needs_a_hundred_rounds(self):
        record = fake_record(rounds=99)
        with self.assertRaises(ValueError):
            run.end_to_end_metrics(record)
        record["scale"] = "tiny"  # smoke runs report it anyway
        self.assertIn("round_ms.p90", run.end_to_end_metrics(record))


REFERENCE = run.REFERENCE_CALIBRATION_MS


def fake_runs(round_ms, eval_ms, transactions, calibration_ms=REFERENCE):
    """Two repeats of one instance: the second is 5 ms slower on even rounds
    and its evaluations 1 ms slower, so the first is every round's fastest.
    The calibration kernel's median is `calibration_ms` in each run."""
    slow = [t + (5.0 if i % 2 == 0 else 0.0) for i, t in enumerate(round_ms)]
    calibration = [calibration_ms / 2, calibration_ms, 2 * calibration_ms]
    return [
        {"instance": 0, "transactions": transactions, "round_ms": slow,
         "eval_ms": [t + 1.0 if t else 0.0 for t in eval_ms],
         "calibration_ms": calibration},
        {"instance": 0, "transactions": transactions, "round_ms": round_ms,
         "eval_ms": eval_ms, "calibration_ms": calibration},
    ]


def fake_record(rounds=100):
    round_ms = [10.0 + i for i in range(rounds)]
    eval_ms = [0.0] * (rounds - 1) + [50.0]
    # Loop time at the fastest repeats: sum(10..109) + 50 = 6000 ms at 100 rounds.
    return {
        "scale": "full", "engine": True, "pool_threads": 2,
        "runs": fake_runs(round_ms, eval_ms, 800),
        "setup_s": [0.3, 0.1, 0.2], "synth_ms": [90.0, 110.0, 100.0],
        "construct_ms": [2.0, 1.0, 3.0], "bootstrap_ms": [0.0, 0.0, 0.0],
        "peak_rss_mb": 50.0, "wire_bytes_per_tx": 4096.0, "ledger_mb": 2.5,
        "consensus_acc": 0.7,
    }


class EndToEndArithmetic(unittest.TestCase):
    def test_values_and_bases(self):
        m = run.end_to_end_metrics(fake_record())
        self.assertEqual(m["setup_s"], 0.2)             # median of set-ups
        self.assertEqual(m["tx_per_s"], 800 / 6.0)      # tx / fastest timed-loop seconds
        self.assertEqual(m["round_ms.p50"], 59.0)       # 50th of 10..109
        self.assertEqual(m["round_ms.p90"], 99.0)       # 90th of 10..109
        self.assertEqual(m["peak_rss_mb"], 50.0)
        self.assertEqual(m["consensus_acc"], 0.7)

    def test_times_scale_to_reference_speed(self):
        record = fake_record()
        # The kernel ran 2x slower than on the reference machine: every time
        # halves, the rate doubles, and no count changes.
        record["runs"] = fake_runs(
            [10.0 + i for i in range(100)], [0.0] * 99 + [50.0], 800, 2 * REFERENCE)
        self.assertAlmostEqual(run.speed_scale(record["runs"]), 0.5)
        m = run.end_to_end_metrics(record)
        self.assertAlmostEqual(m["setup_s"], 0.1)
        self.assertAlmostEqual(m["tx_per_s"], 2 * 800 / 6.0)
        self.assertAlmostEqual(m["round_ms.p50"], 59.0 / 2)
        self.assertAlmostEqual(m["round_ms.p90"], 99.0 / 2)
        self.assertEqual(m["wire_bytes_per_tx"], 4096.0)


class FastestRepeats(unittest.TestCase):
    def test_each_round_takes_its_fastest_repeat(self):
        runs = [
            {"instance": 1, "transactions": 7, "round_ms": [9.0, 2.0], "eval_ms": [0.0, 4.0]},
            {"instance": 0, "transactions": 5, "round_ms": [3.0, 8.0], "eval_ms": [0.0, 1.0]},
            {"instance": 1, "transactions": 7, "round_ms": [6.0, 5.0], "eval_ms": [0.0, 3.0]},
            {"instance": 0, "transactions": 5, "round_ms": [4.0, 7.0], "eval_ms": [0.0, 2.0]},
        ]
        for r in runs:
            r["calibration_ms"] = [REFERENCE]
        round_ms, eval_ms, transactions = run.fastest_rounds(runs)
        self.assertEqual(round_ms, [3.0, 7.0, 6.0, 2.0])   # instance 0, then 1
        self.assertEqual(eval_ms, [0.0, 1.0, 0.0, 3.0])
        self.assertEqual(transactions, 12)                 # one run per instance
        # 12 tx over (18 + 4) ms of fastest rounds and evaluations
        self.assertAlmostEqual(run.tx_per_s(runs), 12 / 0.022)

    def test_each_repeat_scales_by_its_own_calibration(self):
        # The first repeat ran while the host was twice as slow: at reference
        # speed its rounds take 5 ms and beat the second repeat's 6 ms.
        runs = [
            {"instance": 0, "transactions": 4, "round_ms": [10.0, 10.0],
             "eval_ms": [0.0, 0.0], "calibration_ms": [2 * REFERENCE]},
            {"instance": 0, "transactions": 4, "round_ms": [6.0, 6.0],
             "eval_ms": [0.0, 0.0], "calibration_ms": [REFERENCE]},
        ]
        self.assertEqual(run.at_reference_speed(runs[0])["round_ms"], [5.0, 5.0])
        self.assertAlmostEqual(run.tx_per_s(runs), 4 / 0.010)
        self.assertAlmostEqual(run.speed_scale(runs), 1 / 1.5)  # median 1.5x


class PerLayerArithmetic(unittest.TestCase):
    """Every ratio against the base it is defined on."""

    def setUp(self):
        self.record = fake_record()
        self.record["traced"] = {
            # Two repeats of 5 rounds at 20 ms; the evaluations make the
            # fastest loop 250 ms, so 400 tx there run at 1600 tx/s.
            "runs": [{"instance": 0, "transactions": 200, "round_ms": [20.0] * 5,
                      "eval_ms": [0.0] * 4 + [150.0],
                      "calibration_ms": [REFERENCE]}] * 2,
            "node_steps": 500,
            "metrics": {
                "pool.task_exec_us.sum": 200000.0,
                "node.reference_us.sum": 30000.0,
                "node.tip_selection_us.sum": 60000.0,
                "node.train_us.sum": 150000.0,
                "node.validate_us.sum": 30000.0,
                "node.candidates.probed": 2000.0,
                "eval.cache.hit": 30.0, "eval.cache.miss": 10.0,
                "eval.batched.pack_reuses": 45.0, "eval.batched.models": 60.0,
                "eval.forwards": 120.0,
                "nn.gemm.flops": 4e9, "nn.gemm.us.sum": 2e6,
                "nn.conv.flops": 1e9, "nn.conv.us.sum": 1e6,
                "train.examples": 3000.0,
                "tangle.view_cache.hit": 90.0, "tangle.view_cache.miss": 10.0,
                "tangle.view_cache.build_us.sum": 1000.0,
                "tangle.cones.incremental.build_us.sum": 1000.0,
                "tangle.tip_walk.length.sum": 600.0,
                "tangle.tip_walk.length.count": 200.0,
                "store.get.count": 880.0, "store.add.count": 40.0,
                "store.add_us.sum": 2000.0,
                "ledger.codec.encoded_bytes": 500.0, "ledger.codec.raw_bytes": 1000.0,
                "ledger.codec.chunk_dedup_hits": 5.0, "ledger.codec.chunks": 20.0,
                "ledger.codec.encode_us.sum": 40000.0,
                "ledger.codec.decode_us.sum": 10000.0,
            },
        }
        events = [
            {"ph": "X", "name": "perfbench.round", "ts": 0, "dur": 100},
            {"ph": "X", "name": "tangle.add_transaction", "ts": 50, "dur": 3000},
            {"ph": "X", "name": "tangle.add_transaction", "ts": 500, "dur": 9999},
            {"ph": "M", "name": "process_name"},
        ]
        self.m, self.rows = run.per_layer_metrics(self.record, events)

    def test_ratios(self):
        m = self.m
        self.assertAlmostEqual(m["eval.cache_hit_ratio"], 30 / 40)        # hits / probes
        self.assertAlmostEqual(m["eval.pack_reuse_ratio"], 45 / 60)       # reuses / batched models
        self.assertAlmostEqual(m["tangle.view_cache.hit_ratio"], 90 / 100)
        self.assertAlmostEqual(m["codec.ratio"], 500 / 1000)              # encoded / raw bytes
        self.assertAlmostEqual(m["codec.chunk_dedup_ratio"], 5 / 20)      # dedup hits / chunks
        self.assertAlmostEqual(m["store.gets_per_add"], 880 / 40)
        self.assertAlmostEqual(m["node.publish_yield"], 400 / 500)        # published / steps
        self.assertAlmostEqual(m["node.candidates_per_step"], 2000 / 500)
        self.assertAlmostEqual(m["tangle.tip_walk.steps_per_walk"], 600 / 200)
        # task time / (pool threads x round wall): 200 ms / (2 x 200 ms)
        self.assertAlmostEqual(m["pool.utilization"], 0.5)
        self.assertAlmostEqual(m["nn.gemm_gflops"], 4e9 / 2e9)
        self.assertAlmostEqual(m["nn.conv_gflops"], 1.0)
        self.assertAlmostEqual(m["nn.train_examples_per_s"], 3000 / 0.15)
        # untraced tx/s (800 / 6 s) over traced tx/s (200 / 0.25 s)
        self.assertAlmostEqual(m["obs.trace_overhead"], (800 / 6.0) / (200 / 0.25))
        self.assertAlmostEqual(m["eval.forwards"], 12.0)                  # per round

    def test_empty_bases_read_zero(self):
        self.record["traced"]["metrics"] = {}
        m, _ = run.per_layer_metrics(self.record, [])
        for name in ("eval.cache_hit_ratio", "codec.ratio", "codec.chunk_dedup_ratio",
                     "store.gets_per_add", "nn.gemm_gflops"):
            self.assertEqual(m[name], 0.0)

    def test_trace_spans_count_only_inside_rounds(self):
        self.assertAlmostEqual(self.m["tangle.add_transaction_ms"], 3.0 / 10)

    def test_attribution_divides_parallel_busy_time_by_lanes(self):
        rows = {label: (busy, wall) for label, busy, wall, _ in self.rows}
        busy, wall = rows["node.train (parallel)"]
        self.assertAlmostEqual(busy, 15.0)        # 150 ms over 10 rounds
        self.assertAlmostEqual(wall, 15.0 / 3)    # 2 pool threads + caller lane
        self.assertEqual(rows["codec.encode"], (4.0, 4.0))
        attributed = sum(w for label, (b, w) in rows.items() if label != "unattributed")
        self.assertAlmostEqual(rows["unattributed"][1], 20.0 - attributed)
        self.assertAlmostEqual(self.m["round.unattributed_ms"], 20.0 - attributed)


def benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


class Declarations(unittest.TestCase):
    def test_units_match_benchmark_json(self):
        spec = benchmark_spec()
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


class TinySmoke(unittest.TestCase):
    """Each workload at tiny scale emits every named metric with its unit."""

    def run_benchmark(self, workload, trace):
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
             "--scale", "tiny"],
            capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=900)
        self.assertEqual(completed.returncode, 0, completed.stderr)
        return json.loads(completed.stdout.strip().splitlines()[-1])

    def test_every_metric_is_emitted_with_its_unit(self):
        spec = benchmark_spec()
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_benchmark(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(emitted, {m["name"]: m["unit"] for m in spec[key]})
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)


if __name__ == "__main__":
    unittest.main()
