#!/usr/bin/env python3
"""Perf-regression reporting for the tanglefl bench harnesses.

Distills run manifests (the ``--metrics-json`` output of every harness,
or ``TANGLEFL_METRICS_JSON`` for the google-benchmark micro benches) and
per-round timelines (``--timeline`` JSONL) into one compact report, and
compares reports against a committed baseline with per-metric tolerance
bands. Standard library only, so it runs in CI and on any checkout.

Subcommands:

  build     --out BENCH_7.json --run MANIFEST[:TIMELINE] [--run ...]
            One report entry per harness run: headline wall time, named
            phase times, the deterministic key counters (eval/cache/gemm/
            train/tip-walk), and — when a timeline rides along — the round
            count and final tangle-health row per labelled engine run.

  compare   --report BENCH_7.json --baseline bench/baselines/...json
            [--wall-tolerance 0.25] [--counter-tolerance 0.25]
            Exit 1 when a run's wall time regresses past the tolerance,
            a baseline counter drifts past its band, or a baseline
            timeline value (deterministic, so compared exactly) changed.
            Improvements are reported but never fail. Baseline entries
            list only the metrics they want gated: micro-bench counters
            scale with the benchmark iteration count, so their baselines
            carry wall time only, while single-thread fig runs can pin
            deterministic counters and final health stats exactly.

  validate  PATH [PATH ...]
            Schema-check emitted artifacts: ``.json`` files must parse to
            an object; ``.jsonl`` timeline files must hold one object per
            line with "round" then "run" first and the remaining series
            keys sorted (the determinism contract for timeline output).

Exit status: 0 clean, 1 regression/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

SCHEMA = "tanglefl-bench-report-v1"

# Deterministic work counters worth tracking release-over-release. Only
# those present in a manifest are copied into the report.
KEY_COUNTERS = (
    "eval.cache.hit",
    "eval.cache.miss",
    "eval.forwards",
    "eval.examples",
    "eval.batched.groups",
    "eval.batched.models",
    "eval.batched.pack_reuses",
    "nn.gemm.flops",
    "nn.conv.flops",
    "train.batches",
    "tangle.tip_walk.count",
    "tangle.cone_recompute.count",
    "tangle.cones.incremental.builds",
    "tangle.cones.incremental.appended",
    "tangle.prune.milestones",
    "tangle.prune.payloads_released",
    "tangle.transactions.added",
    "ledger.codec.payloads",
    "ledger.codec.raw_bytes",
    "ledger.codec.encoded_bytes",
)

# Final-row timeline series summarizing DAG health at the end of a run.
HEALTH_SERIES = (
    "tangle.health.tip_count",
    "tangle.health.orphan_count",
    "tangle.health.orphan_rate",
    "tangle.health.confirmed_count",
    "tangle.health.depth_mean",
    "sim.ledger_bytes",
)


def fail(message: str) -> None:
    print(f"bench_report.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {path}: {err}")


def read_timeline(path: str) -> Dict[str, dict]:
    """JSONL -> {run label: {"rounds": N, "final": {series: value}}}."""
    per_run: Dict[str, dict] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as err:
                    fail(f"{path}:{lineno}: bad JSONL row: {err}")
                label = str(row.get("run", ""))
                entry = per_run.setdefault(label, {"rounds": 0, "final": {}})
                entry["rounds"] += 1
                entry["final"] = {
                    key: row[key] for key in HEALTH_SERIES if key in row
                }
    except OSError as err:
        fail(f"cannot read timeline {path}: {err}")
    return per_run


def build_entry(manifest_path: str, timeline_path: Optional[str]) -> dict:
    manifest = load_json(manifest_path)
    for key in ("name", "total_seconds"):
        if key not in manifest:
            fail(f"{manifest_path}: manifest missing '{key}'")
    counters = manifest.get("metrics", {}).get("counters", {})
    entry = {
        "manifest": manifest_path,
        "seed": manifest.get("seed", 0),
        "git": manifest.get("git", "unknown"),
        "total_seconds": manifest["total_seconds"],
        "phases_seconds": manifest.get("phases_seconds", {}),
        "counters": {k: counters[k] for k in KEY_COUNTERS if k in counters},
    }
    if timeline_path:
        entry["timeline"] = read_timeline(timeline_path)
    return entry


def cmd_build(args: argparse.Namespace) -> int:
    runs: Dict[str, dict] = {}
    for spec in args.run:
        manifest_path, _, timeline_path = spec.partition(":")
        entry = build_entry(manifest_path, timeline_path or None)
        name = load_json(manifest_path)["name"]
        if name in runs:
            fail(f"duplicate run name '{name}' (from {manifest_path})")
        runs[name] = entry
    report = {"schema": SCHEMA, "runs": runs}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"bench_report.py: wrote {args.out} ({len(runs)} run(s))")
    return 0


def relative_delta(current: float, reference: float) -> float:
    if reference == 0:
        return 0.0 if current == 0 else float("inf")
    return (current - reference) / reference


class Comparison:
    def __init__(self) -> None:
        self.failures: List[str] = []
        self.notes: List[str] = []

    def check_band(self, what: str, current: float, reference: float,
                   tolerance: float) -> None:
        delta = relative_delta(current, reference)
        line = (f"{what}: {current:g} vs baseline {reference:g} "
                f"({delta:+.1%}, tolerance ±{tolerance:.0%})")
        if abs(delta) > tolerance:
            # Faster/smaller than baseline is worth a look but not a gate.
            if delta < 0:
                self.notes.append("IMPROVED " + line)
            else:
                self.failures.append("REGRESSED " + line)
        else:
            self.notes.append("ok " + line)

    def check_exact(self, what: str, current, reference) -> None:
        if current != reference:
            self.failures.append(
                f"DRIFTED {what}: {current!r} vs baseline {reference!r} "
                "(deterministic value; expected exact match)"
            )
        else:
            self.notes.append(f"ok {what}: {current!r} (exact)")


def cmd_compare(args: argparse.Namespace) -> int:
    report = load_json(args.report)
    baseline = load_json(args.baseline)
    for doc, path in ((report, args.report), (baseline, args.baseline)):
        if doc.get("schema") != SCHEMA:
            fail(f"{path}: expected schema '{SCHEMA}', "
                 f"got {doc.get('schema')!r}")

    result = Comparison()
    for name, base in sorted(baseline["runs"].items()):
        current = report["runs"].get(name)
        if current is None:
            result.failures.append(f"MISSING run '{name}' absent from report")
            continue
        tolerance = base.get("wall_tolerance", args.wall_tolerance)
        result.check_band(f"{name}.total_seconds",
                          current["total_seconds"], base["total_seconds"],
                          tolerance)
        for counter, reference in sorted(base.get("counters", {}).items()):
            value = current.get("counters", {}).get(counter)
            if value is None:
                result.failures.append(
                    f"MISSING {name}.counters.{counter} absent from report")
                continue
            result.check_band(f"{name}.counters.{counter}", value, reference,
                              args.counter_tolerance)
        for label, base_run in sorted(base.get("timeline", {}).items()):
            cur_run = current.get("timeline", {}).get(label)
            if cur_run is None:
                result.failures.append(
                    f"MISSING {name}.timeline['{label}'] absent from report")
                continue
            result.check_exact(f"{name}.timeline['{label}'].rounds",
                               cur_run.get("rounds"), base_run.get("rounds"))
            for series, reference in sorted(
                    base_run.get("final", {}).items()):
                result.check_exact(
                    f"{name}.timeline['{label}'].final.{series}",
                    cur_run.get("final", {}).get(series), reference)

    for line in result.notes:
        print(line)
    for line in result.failures:
        print(line)
    verdict = (f"bench_report.py: {len(result.failures)} failure(s), "
               f"{len(result.notes)} check(s) passed")
    print(verdict, file=sys.stderr if result.failures else sys.stdout)
    return 1 if result.failures else 0


def validate_jsonl(path: str) -> List[str]:
    problems = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                problems.append(f"{path}:{lineno}: blank line")
                continue
            try:
                pairs: List[Tuple[str, object]] = json.loads(
                    line, object_pairs_hook=lambda kv: kv)
            except json.JSONDecodeError as err:
                problems.append(f"{path}:{lineno}: {err}")
                continue
            keys = [k for k, _ in pairs]
            if keys[:2] != ["round", "run"]:
                problems.append(
                    f"{path}:{lineno}: row must start with 'round','run' "
                    f"(got {keys[:2]})")
            series = keys[2:]
            if series != sorted(series):
                problems.append(
                    f"{path}:{lineno}: series keys not sorted")
    return problems


def cmd_validate(args: argparse.Namespace) -> int:
    problems: List[str] = []
    for path in args.paths:
        try:
            if path.endswith(".jsonl"):
                problems += validate_jsonl(path)
            else:
                doc = load_json(path)
                if not isinstance(doc, dict):
                    problems.append(f"{path}: top level is not an object")
        except OSError as err:
            problems.append(f"{path}: {err}")
    for line in problems:
        print(line)
    if problems:
        print(f"bench_report.py: {len(problems)} validation problem(s)",
              file=sys.stderr)
        return 1
    print(f"bench_report.py: {len(args.paths)} artifact(s) valid")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="distill manifests into a report")
    build.add_argument("--out", required=True,
                       help="report output path ('-' for stdout)")
    build.add_argument("--run", action="append", required=True,
                       metavar="MANIFEST[:TIMELINE]",
                       help="manifest JSON, optionally with its timeline "
                       "JSONL after a colon (repeatable)")
    build.set_defaults(func=cmd_build)

    compare = sub.add_parser("compare", help="gate a report on a baseline")
    compare.add_argument("--report", required=True)
    compare.add_argument("--baseline", required=True)
    compare.add_argument("--wall-tolerance", type=float, default=0.25,
                         help="relative wall-time band (default 0.25); a "
                         "baseline entry may override via wall_tolerance")
    compare.add_argument("--counter-tolerance", type=float, default=0.25,
                         help="relative band for baseline counters "
                         "(default 0.25)")
    compare.set_defaults(func=cmd_compare)

    validate = sub.add_parser("validate", help="schema-check artifacts")
    validate.add_argument("paths", nargs="+")
    validate.set_defaults(func=cmd_validate)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
