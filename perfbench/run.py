#!/usr/bin/env python3
"""Repository benchmark: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the driver
(and the program libraries it links) under .bench_build/perfbench; later runs
rebuild incrementally. The driver prints its stamp, digests and a raw JSON
record; this script turns the record into the benchmark's named metrics and
prints them as one JSON object on the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes a Chrome trace). --record FILE appends the stamped result to FILE
and refuses when the program sources are not a clean git checkout.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
from fractions import Fraction
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

WORKLOADS = ("femnist_robust", "femnist_codec", "ledger_growth")

# Percentiles are reported only when at least this many samples lie beyond.
TAIL_SAMPLES = 10

# About the driver's calibration kernel's time on the reference machine
# (README.md). Each run of an instance has its times scaled by this over the
# kernel's median time during that run.
REFERENCE_CALIBRATION_MS = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "tx_per_s": "1/s",
    "round_ms.p50": "ms",
    "round_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "wire_bytes_per_tx": "bytes",
    "ledger_mb": "MB",
    "consensus_acc": "fraction",
}

PER_LAYER_UNITS = {
    "data.synth_ms": "ms",
    "core.construct_ms": "ms",
    "core.bootstrap_ms": "ms",
    "core.evaluate_ms": "ms/round",
    "pool.task_ms": "ms/round",
    "pool.queue_wait_ms": "ms/round",
    "pool.utilization": "fraction",
    "node.reference_ms": "ms/round",
    "node.tip_selection_ms": "ms/round",
    "node.train_ms": "ms/round",
    "node.validate_ms": "ms/round",
    "node.publish_yield": "fraction",
    "node.candidates_per_step": "count",
    "eval.forward_ms": "ms/round",
    "eval.forwards": "1/round",
    "eval.cache_hit_ratio": "fraction",
    "eval.pack_reuse_ratio": "fraction",
    "nn.forward_ms": "ms/round",
    "nn.backward_ms": "ms/round",
    "nn.gemm_ms": "ms/round",
    "nn.conv_ms": "ms/round",
    "nn.gemm_gflops": "GFLOP/s",
    "nn.conv_gflops": "GFLOP/s",
    "nn.train_examples_per_s": "1/s",
    "tangle.select_tips_ms": "ms/round",
    "tangle.choose_reference_ms": "ms/round",
    "tangle.add_transaction_ms": "ms/round",
    "tangle.prune_ms": "ms/round",
    "tangle.view_cache.build_ms": "ms/round",
    "tangle.view_cache.hit_ratio": "fraction",
    "tangle.confidence_ms": "ms/round",
    "tangle.tip_walk.steps_per_walk": "count",
    "tangle.cones.bytes": "bytes",
    "store.add_ms": "ms/round",
    "store.gets_per_add": "count",
    "codec.encode_ms": "ms/round",
    "codec.decode_ms": "ms/round",
    "codec.ratio": "fraction",
    "codec.chunk_dedup_ratio": "fraction",
    "round.unattributed_ms": "ms/round",
    "obs.trace_overhead": "ratio",
}


# --------------------------------------------------------------------------
# Arithmetic (unit-tested in test_perfbench.py).

def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def nearest_rank(n, q):
    """1-based rank of the nearest-rank q-th percentile of n samples, exact
    for decimal q such as 99.9."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - nearest_rank(n, q)


def highest_percentile(n, tail=TAIL_SAMPLES, candidates=(50, 90, 95, 99, 99.9)):
    """Highest candidate percentile with at least `tail` samples beyond it,
    or None when even the median has fewer."""
    allowed = [q for q in candidates if samples_beyond(n, q) >= tail]
    return max(allowed) if allowed else None


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[nearest_rank(len(ordered), q) - 1]


def ratio(numerator, denominator):
    """numerator / denominator, 0 when the base is empty (layer bypassed)."""
    return numerator / denominator if denominator > 0 else 0.0


def at_reference_speed(run):
    """One run of an instance with its round and evaluation times scaled to
    the reference machine's speed, by the calibration kernel's reference time
    over its median time during that run."""
    scale = REFERENCE_CALIBRATION_MS / median(run["calibration_ms"])
    return dict(run, round_ms=[t * scale for t in run["round_ms"]],
                eval_ms=[t * scale for t in run["eval_ms"]])


def fastest_rounds(runs):
    """Combines the repeats of each distinct instance: every round (and every
    round's scheduled evaluation) takes its fastest repeat. A repeat is the
    same computation, so the spread between repeats is the host's noise,
    which only ever adds time. Returns (round_ms, eval_ms, transactions),
    the transactions of one run of each distinct instance."""
    by_instance = {}
    for run in runs:
        by_instance.setdefault(run["instance"], []).append(run)
    round_ms, eval_ms, transactions = [], [], 0
    for instance in sorted(by_instance):
        repeats = by_instance[instance]
        round_ms += [min(t) for t in zip(*(r["round_ms"] for r in repeats))]
        eval_ms += [min(t) for t in zip(*(r["eval_ms"] for r in repeats))]
        transactions += repeats[0]["transactions"]
    return round_ms, eval_ms, transactions


def speed_scale(runs):
    """Factor that takes times taken during these runs to the reference
    machine's speed: the calibration kernel's reference time over its median
    time across the runs. Below 1 when the host ran slow."""
    samples = [t for run in runs for t in run["calibration_ms"]]
    return REFERENCE_CALIBRATION_MS / median(samples)


def tx_per_s(runs):
    """Transactions per second of the timed loop (rounds plus scheduled
    evaluations), each round at reference speed and its fastest repeat."""
    round_ms, eval_ms, transactions = fastest_rounds(
        [at_reference_speed(run) for run in runs])
    return ratio(transactions, (sum(round_ms) + sum(eval_ms)) / 1e3)


def end_to_end_metrics(record):
    """The end-to-end metrics of one untraced run; times at reference speed.
    Raises ValueError when the run timed too few rounds for its p90."""
    runs = record["runs"]
    rounds, _, _ = fastest_rounds([at_reference_speed(run) for run in runs])
    if record["scale"] == "full" and (highest_percentile(len(rounds)) or 0) < 90:
        raise ValueError(
            "%d timed rounds: p90 needs %d rounds beyond it"
            % (len(rounds), TAIL_SAMPLES))
    return {
        "setup_s": median(record["setup_s"]) * speed_scale(runs),
        "tx_per_s": tx_per_s(runs),
        "round_ms.p50": percentile(rounds, 50),
        "round_ms.p90": percentile(rounds, 90),
        "peak_rss_mb": record["peak_rss_mb"],
        "wire_bytes_per_tx": record["wire_bytes_per_tx"],
        "ledger_mb": record["ledger_mb"],
        "consensus_acc": record["consensus_acc"],
    }


def trace_span_ms(trace_events, name, within):
    """Total duration (ms) of complete events called `name` that start inside
    one of the `within` spans."""
    windows = sorted((e["ts"], e["ts"] + e["dur"]) for e in trace_events
                     if e.get("ph") == "X" and e.get("name") == within)
    starts = [w[0] for w in windows]
    total_us = 0.0
    for event in trace_events:
        if event.get("ph") != "X" or event.get("name") != name:
            continue
        i = bisect.bisect_right(starts, event["ts"]) - 1
        if i >= 0 and event["ts"] <= windows[i][1]:
            total_us += event["dur"]
    return total_us / 1e3


def per_layer_metrics(record, trace_events):
    """Per-layer metrics of a traced run plus the attribution of round wall
    time. Returns (metrics, table_rows).

    Busy time inside the parallel node-step section is summed over every lane
    that ran it: the pool threads plus the calling thread, which the pool
    uses as one more lane. Dividing by that lane count converts busy time to
    wall time, exact when the lanes stay busy until the barrier; lane idle
    time at the barrier is then left in the unattributed line. Layers that
    run serially at the round barrier count 1:1."""
    traced = record["traced"]
    m = traced["metrics"]
    traced_round_ms = [t for run in traced["runs"] for t in run["round_ms"]]
    rounds = len(traced_round_ms)
    if rounds == 0:
        raise ValueError("traced run timed no rounds")
    round_wall_ms = sum(traced_round_ms)
    engine = record["engine"]
    lanes = record["pool_threads"] + 1 if engine else 1

    def get(name):
        return m.get(name, 0.0)

    def per_round_ms(histogram):
        return get(histogram + ".sum") / 1e3 / rounds

    steps = traced["node_steps"]
    if engine:
        add_transaction_ms = trace_span_ms(
            trace_events, "tangle.add_transaction", "perfbench.round") / rounds
    else:
        add_transaction_ms = per_round_ms("perfbench.add_transaction_us")

    metrics = {
        "data.synth_ms": median(record["synth_ms"]),
        "core.construct_ms": median(record["construct_ms"]),
        "core.bootstrap_ms": median(record["bootstrap_ms"]),
        "core.evaluate_ms": per_round_ms("perfbench.evaluate_us"),
        "pool.task_ms": per_round_ms("pool.task_exec_us"),
        "pool.queue_wait_ms": per_round_ms("pool.queue_wait_us"),
        "pool.utilization": ratio(
            get("pool.task_exec_us.sum") / 1e3,
            record["pool_threads"] * round_wall_ms) if engine else 0.0,
        "node.reference_ms": per_round_ms("node.reference_us"),
        "node.tip_selection_ms": per_round_ms("node.tip_selection_us"),
        "node.train_ms": per_round_ms("node.train_us"),
        "node.validate_ms": per_round_ms("node.validate_us"),
        "node.publish_yield": ratio(
            sum(run["transactions"] for run in traced["runs"]), steps),
        "node.candidates_per_step": ratio(get("node.candidates.probed"), steps),
        "eval.forward_ms": per_round_ms("eval.us"),
        "eval.forwards": get("eval.forwards") / rounds,
        "eval.cache_hit_ratio": ratio(
            get("eval.cache.hit"), get("eval.cache.hit") + get("eval.cache.miss")),
        "eval.pack_reuse_ratio": ratio(
            get("eval.batched.pack_reuses"), get("eval.batched.models")),
        "nn.forward_ms": per_round_ms("nn.forward_us"),
        "nn.backward_ms": per_round_ms("nn.backward_us"),
        "nn.gemm_ms": per_round_ms("nn.gemm.us"),
        "nn.conv_ms": per_round_ms("nn.conv.us"),
        "nn.gemm_gflops": ratio(get("nn.gemm.flops"), get("nn.gemm.us.sum") * 1e3),
        "nn.conv_gflops": ratio(get("nn.conv.flops"), get("nn.conv.us.sum") * 1e3),
        "nn.train_examples_per_s": ratio(
            get("train.examples"), get("node.train_us.sum") / 1e6),
        "tangle.select_tips_ms": per_round_ms("perfbench.select_tips_us"),
        "tangle.choose_reference_ms": per_round_ms("perfbench.choose_reference_us"),
        "tangle.add_transaction_ms": add_transaction_ms,
        "tangle.prune_ms": per_round_ms("perfbench.prune_us"),
        "tangle.view_cache.build_ms": per_round_ms("tangle.view_cache.build_us")
        + per_round_ms("tangle.cones.incremental.build_us"),
        "tangle.view_cache.hit_ratio": ratio(
            get("tangle.view_cache.hit"),
            get("tangle.view_cache.hit") + get("tangle.view_cache.miss")),
        "tangle.confidence_ms": per_round_ms("tangle.confidence_us"),
        "tangle.tip_walk.steps_per_walk": ratio(
            get("tangle.tip_walk.length.sum"), get("tangle.tip_walk.length.count")),
        "tangle.cones.bytes": get("tangle.cones.incremental.bytes"),
        "store.add_ms": per_round_ms("store.add_us"),
        "store.gets_per_add": ratio(get("store.get.count"), get("store.add.count")),
        "codec.encode_ms": per_round_ms("ledger.codec.encode_us"),
        "codec.decode_ms": per_round_ms("ledger.codec.decode_us"),
        "codec.ratio": ratio(
            get("ledger.codec.encoded_bytes"), get("ledger.codec.raw_bytes")),
        "codec.chunk_dedup_ratio": ratio(
            get("ledger.codec.chunk_dedup_hits"), get("ledger.codec.chunks")),
        "obs.trace_overhead": ratio(tx_per_s(record["runs"]), tx_per_s(traced["runs"])),
    }

    # Disjoint partition of the round body: (label, busy ms/round, lanes).
    if engine:
        parts = [
            ("node.reference (parallel)", metrics["node.reference_ms"], lanes),
            ("node.tip_selection (parallel)", metrics["node.tip_selection_ms"], lanes),
            ("node.train (parallel)", metrics["node.train_ms"], lanes),
            ("node.validate (parallel)", metrics["node.validate_ms"], lanes),
            ("tangle.view_cache.build", metrics["tangle.view_cache.build_ms"], 1),
            ("codec.encode", metrics["codec.encode_ms"], 1),
            ("codec.decode", metrics["codec.decode_ms"], 1),
            ("store.add", metrics["store.add_ms"], 1),
            ("tangle.add_transaction", metrics["tangle.add_transaction_ms"], 1),
        ]
    else:
        parts = [
            ("tangle.view_cache (round view)", per_round_ms("perfbench.view_cache_get_us"), 1),
            ("tangle.choose_reference", metrics["tangle.choose_reference_ms"], 1),
            ("tangle.select_tips", metrics["tangle.select_tips_ms"], 1),
            ("store.add", metrics["store.add_ms"], 1),
            ("tangle.add_transaction", metrics["tangle.add_transaction_ms"], 1),
            ("tangle.prune", metrics["tangle.prune_ms"], 1),
        ]
    round_ms = round_wall_ms / rounds
    rows = []
    attributed = 0.0
    for label, busy, lane_count in parts:
        wall = busy / lane_count
        attributed += wall
        rows.append((label, busy, wall, ratio(wall, round_ms)))
    unattributed = round_ms - attributed
    metrics["round.unattributed_ms"] = unattributed
    rows.append(("unattributed", unattributed, unattributed, ratio(unattributed, round_ms)))
    return metrics, rows


def format_table(workload, lanes, round_ms, rows, overhead):
    lines = ["per-layer breakdown: %s, %.3f ms/round wall, %d lane(s)"
             % (workload, round_ms, lanes),
             "%-32s %12s %12s %8s" % ("layer", "busy ms/rnd", "wall ms/rnd", "share")]
    for label, busy, wall, share in rows:
        lines.append("%-32s %12.3f %12.3f %7.1f%%" % (label, busy, wall, 100 * share))
    lines.append("%-32s %12.3f" % ("obs.trace_overhead", overhead))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Build, stamp, run.

def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            status = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT)
            if status != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        status = subprocess.call(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs],
            stdout=log, stderr=subprocess.STDOUT)
    return status == 0 and os.path.exists(DRIVER)


def git_revision():
    """(revision, dirty) of the program sources, or ("unknown", None) outside
    a git checkout. Only the files that build the program count; the
    benchmark's own files are identified by bench_sha256()."""
    try:
        revision = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--", "src", "cmake",
             "CMakeLists.txt"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None
    return revision, bool(status)


def bench_sha256():
    digest = hashlib.sha256()
    for name in sorted(os.listdir(HERE)):
        path = os.path.join(HERE, name)
        if os.path.isfile(path) and not name.endswith(".pyc"):
            digest.update(name.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke scale for tests")
    parser.add_argument("--record", default="",
                        help="append the stamped result to this JSON-lines file")
    args = parser.parse_args(argv)

    revision, dirty = git_revision()
    if args.record and dirty is not False:
        print("refusing --record: program sources are %s"
              % ("not in a git checkout" if dirty is None else "dirty (" + revision + "-dirty)"),
              file=sys.stderr)
        return 2
    if not build():
        print("build failed; see " + os.path.join(BUILD_DIR, "build.log"), file=sys.stderr)
        return 1

    trace_path = os.path.join(BUILD_DIR, "traces",
                              "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--trace-out", trace_path,
               "--git", revision + ("-dirty" if dirty else "")]
    completed = subprocess.run(command, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        print("driver exited with %d" % completed.returncode, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    record = json.loads(lines[-1])

    failures = list(record["failures"])
    if args.trace:
        with open(trace_path) as handle:
            events = json.load(handle)
        events = events["traceEvents"] if isinstance(events, dict) else events
        values, rows = per_layer_metrics(record, events)
        units = PER_LAYER_UNITS
        traced_round_ms = [t for run in record["traced"]["runs"] for t in run["round_ms"]]
        print(format_table(args.workload,
                           record["pool_threads"] + 1 if record["engine"] else 1,
                           sum(traced_round_ms) / len(traced_round_ms),
                           rows, values["obs.trace_overhead"]))
        print("chrome trace: " + os.path.relpath(trace_path, ROOT))
    else:
        try:
            values = end_to_end_metrics(record)
        except ValueError as error:
            values = {}
            failures.append(str(error))
        units = END_TO_END_UNITS
        for name in units:
            value = values.get(name, 0.0)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                failures.append("end-to-end metric %s is %r" % (name, value))
    for failure in failures[len(record["failures"]):]:
        print("CHECK FAILED: " + failure)

    result = {
        "correct": not failures,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]) or int(bool(failures)),
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    if args.record:
        stamp = next(json.loads(line[len("stamp "):]) for line in lines
                     if line.startswith("stamp "))
        stamp["bench_sha256"] = bench_sha256()
        entry = {"stamp": stamp, "trace": args.trace, "seconds": args.seconds,
                 "ledger_digest": record["ledger_digest"],
                 "counters_digest": record["counters_digest"], "result": result}
        with open(args.record, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
