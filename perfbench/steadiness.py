#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs every workload once per seed and
reports, per end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/results/set1.jsonl
    python3 perfbench/steadiness.py --summarize perfbench/results/set1.jsonl \\
        --compare perfbench/results/set2.jsonl

Runs are appended through run.py --record, so they carry the stamp and are
refused when the program sources are dirty. --compare checks a second set of
the same seeds: per-seed ledger and counter digests must be identical, and no
metric's median may be worse than the first set's by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def load(path):
    runs = {}
    with open(path) as handle:
        for line in handle:
            entry = json.loads(line)
            if entry["trace"] == 0:
                runs.setdefault(entry["stamp"]["workload"], []).append(entry)
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def summarize(spec, runs, compare=None):
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        entries = runs.get(workload, [])
        if not entries:
            continue
        seeds = [e["stamp"]["seed"] for e in entries]
        failed = sum(e["result"]["failed"] for e in entries)
        print("\n%s: %d runs, seeds %s, failed %d, all correct %s"
              % (workload, len(entries), seeds, failed,
                 all(e["result"]["correct"] for e in entries)))
        ok &= failed == 0 and all(e["result"]["correct"] for e in entries)
        print("%-20s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                               "spread", "bound"))
        for name, metric in bounds.items():
            values = [e["result"]["metrics"][name]["value"] for e in entries]
            med, q1, q3, share = spread(values)
            flag = "" if share <= metric["bound"] else "  OVER"
            ok &= not flag
            print("%-20s %14.6g %14.6g %14.6g %7.1f%% %5.0f%%%s"
                  % (name, med, q1, q3, 100 * share, 100 * metric["bound"], flag))
        if compare is None:
            continue
        others = {e["stamp"]["seed"]: e for e in compare.get(workload, [])}
        same = [e for e in entries if e["stamp"]["seed"] in others]
        identical = all(
            e["ledger_digest"] == others[e["stamp"]["seed"]]["ledger_digest"]
            and e["counters_digest"] == others[e["stamp"]["seed"]]["counters_digest"]
            for e in same)
        print("second set: %d matching seeds, digests identical per seed: %s"
              % (len(same), identical))
        ok &= identical
        for name, metric in bounds.items():
            first = statistics.median(e["result"]["metrics"][name]["value"] for e in entries)
            second = statistics.median(
                e["result"]["metrics"][name]["value"] for e in compare[workload])
            change = worse_by(first, second, metric["better"])
            flag = "" if change <= metric["bound"] else "  WORSE"
            ok &= not flag
            print("  %-20s median %14.6g -> %14.6g  worse by %6.1f%%%s"
                  % (name, first, second, 100 * change, flag))
    return ok


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="JSON-lines file the runs are appended to")
    parser.add_argument("--summarize", help="summarize this file instead of running")
    parser.add_argument("--compare", help="second set of the same seeds")
    args = parser.parse_args(argv)
    spec = load_spec()

    path = args.summarize
    if path is None:
        if not args.out:
            parser.error("--out is required when running")
        names = [w["name"] for w in spec["workloads"]]
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        for seed in parse_seeds(args.seeds):
            for workload in names:
                command = [sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0",
                           "--record", args.out]
                completed = subprocess.run(command, capture_output=True, text=True,
                                           cwd=ROOT)
                last = completed.stdout.strip().splitlines()[-1:] or [""]
                print(workload, seed, completed.returncode, last[0][:120], flush=True)
                if completed.returncode != 0:
                    sys.stderr.write(completed.stderr)
                    return 1
        path = args.out
    compare = load(args.compare) if args.compare else None
    return 0 if summarize(spec, load(path), compare) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
