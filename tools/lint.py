#!/usr/bin/env python3
"""Project-specific determinism and concurrency lint for tanglefl.

The simulation engine promises bit-identical results for a given master
seed regardless of thread count or scheduling (see the determinism
contract in src/support/thread_pool.hpp and src/support/rng.hpp: every
random decision derives from (seed, node id, round), never from wall
clock, address layout, or scheduling order). This script enforces the
source-level rules that keep that promise true. It is intentionally
line-oriented and dependency-free so it runs anywhere Python 3.8+ does.

Rules (scoped to src/core and src/tangle unless noted):

  banned-random          rand()/srand(), std::random_device,
                         std::mt19937 / default_random_engine, and
                         time-based seeding are forbidden; all randomness
                         must flow through tanglefl::Rng streams.
  unordered-iteration    Range-for iteration over a std::unordered_* — the
                         iteration order depends on hash seeding and
                         allocation history, so any fold over it is
                         nondeterministic. Lookups are fine; iterate a
                         sorted or insertion-ordered structure instead.
  banned-clock           (every linted file outside src/support) Direct
                         std::chrono clock reads (*_clock::now()) are
                         forbidden; go through Stopwatch /
                         Stopwatch::now_micros() so all wall-clock access is
                         confined to src/support and can never leak into
                         deterministic simulation state.
  ops-allocation         (src/nn/ops.cpp only) raw `new`, `malloc`, and
                         Tensor construction are forbidden in the kernel
                         translation unit: kernels run per minibatch, so
                         scratch must come from an ops::Workspace (reused
                         arena), never a fresh heap allocation.
  raw-mutex              (all of src/) std::mutex, std::shared_mutex,
                         std::condition_variable, and the std lock guards
                         (lock_guard/unique_lock/scoped_lock/shared_lock)
                         may appear only in src/support/sync.hpp. Everything
                         else locks through the TSA-annotated wrappers
                         (Mutex/SharedMutex/CondVar/MutexLock/ReaderLock/
                         WriterLock) so Clang's Thread Safety Analysis sees
                         every acquisition.
  unannotated-guard      (all of src/) Inside a class that owns a Mutex or
                         SharedMutex wrapper, every other data member must
                         be TANGLEFL_GUARDED_BY / TANGLEFL_PT_GUARDED_BY
                         annotated, a std::atomic, static/constexpr, or
                         carry a lint:allow(unannotated-guard) comment
                         stating why it needs no lock (immutable after
                         construction, single-thread confined, ...).
  include-order          (all of src/) Each contiguous block of #include
                         directives must be lexicographically sorted, the
                         convention clang-format's include sorter would
                         enforce; keeps diffs clean and makes accidental
                         duplicate includes visible.
  metric-name            (all of src/) Every registry.counter()/gauge()/
                         histogram() registration must pass a string literal
                         matching the lowercase dotted `component.metric`
                         convention ([a-z0-9_] segments joined by '.', at
                         least two segments). Runtime-concatenated names
                         fragment the timeline/report schema and defeat
                         grep; a sanctioned dynamic-name helper carries
                         lint:allow(metric-name) stating why.
  tmp-path               (tests/ only) A string literal starting with
                         "/tmp/ is forbidden. ctest runs every test as its
                         own process, so a fixed path is shared by every
                         test that names it and races under `ctest -j`;
                         build the path from ::testing::TempDir() and the
                         running test's name instead.

The pre-TSA "unlocked-mutation" heuristic (mutating a mutex-sibling field
in a lock-free function body) is retired: with every lock flowing through
the annotated wrappers and every guarded field carrying GUARDED_BY, Clang's
-Wthread-safety proves that property exactly instead of approximately, and
raw-mutex + unannotated-guard keep the annotations load-bearing.

Suppress a finding with a trailing comment naming the rule:
    foo();  // lint:allow(unordered-iteration) reason...
For unannotated-guard the comment may also sit on its own line directly
above the member declaration.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

DETERMINISM_DIRS = (
    os.path.join("src", "core"),
    os.path.join("src", "tangle"),
)
CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)")

BANNED_RANDOM = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device is nondeterministic"),
    (re.compile(r"(?<![\w:])(?:rand\s*\(\s*\)|srand\s*\()"), "rand()/srand() break seeded reproducibility"),
    (re.compile(r"\bstd::mt19937(_64)?\b"), "use tanglefl::Rng streams, not std::mt19937"),
    (re.compile(r"\bstd::default_random_engine\b"), "use tanglefl::Rng streams"),
    (re.compile(r"\bstd::chrono::[a-z_]+_clock::now\b.*seed|seed.*\bstd::chrono::[a-z_]+_clock::now\b"),
     "wall-clock seeding is nondeterministic"),
]

SUPPORT_DIR = os.path.join("src", "support")
SRC_DIR = "src"
TESTS_DIR = "tests"

# The one file allowed to name the std synchronization primitives.
SYNC_FILE = os.path.join("src", "support", "sync.hpp")

# The kernel translation unit: all scratch must come through ops::Workspace.
OPS_FILE = os.path.join("src", "nn", "ops.cpp")

OPS_ALLOCATION = [
    (re.compile(r"(?<![\w:])new\b"), "raw new in kernel code"),
    (re.compile(r"(?<![\w:])(?:malloc|calloc|realloc)\s*\("),
     "malloc-family allocation in kernel code"),
    # Tensor construction: `Tensor t(...)`, `Tensor t{...}`, `Tensor(...)`.
    # Deliberately does not match `const Tensor&` / `Tensor&` / `Tensor*`
    # parameter declarations.
    (re.compile(r"\bTensor\s+\w+\s*[({]|\bTensor\s*[({]"),
     "Tensor construction in kernel code; take scratch from an "
     "ops::Workspace instead"),
]

BANNED_CLOCK_RE = re.compile(
    r"\b(?:std::chrono::\w+_clock|(?:steady|system|high_resolution)_clock)"
    r"\s*::\s*now\s*\("
)

RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"shared_timed_mutex|recursive_timed_mutex|condition_variable|"
    r"condition_variable_any|scoped_lock|lock_guard|unique_lock|"
    r"shared_lock)\b"
)

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s+(\w+)\s*[;{=]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;)]*?[\s&*]([\w.\->]+)\s*\)\s*\{?")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"][^>"]+[>"])')

# A metric registration: `<expr>.counter(` / `.gauge(` / `.histogram(`.
# Matched against stripped code so comments can mention the methods freely;
# the name literal itself is then read back from the raw line because
# strip_comments_and_strings empties string contents.
METRIC_CALL_RE = re.compile(r"\.\s*(counter|gauge|histogram)\s*\(")
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+$")
METRIC_LITERAL_RE = re.compile(r'^"([^"]*)"')

# A member declaration of one of the annotated lock wrappers — the signal
# that a class's fields fall under the unannotated-guard rule. CondVar is a
# sync primitive, not shared state, so it is exempt alongside the locks.
LOCK_MEMBER_RE = re.compile(
    r"^(?:mutable\s+)?(?:tanglefl::)?(?:Mutex|SharedMutex)\s+\w+$"
)
SYNC_PRIMITIVE_MEMBER_RE = re.compile(
    r"^(?:mutable\s+)?(?:tanglefl::)?(?:Mutex|SharedMutex|CondVar)\s+\w+$"
)
GUARD_ANNOTATION_RE = re.compile(r"\bTANGLEFL_(?:PT_)?GUARDED_BY\s*\([^)]*\)")
ACCESS_SPECIFIER_RE = re.compile(r"\b(?:public|private|protected)\s*:(?!:)")
FIELD_NAME_RE = re.compile(
    r"[\w>\]&*]\s+([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^{}]*\})?$"
)
CLASS_HEAD_RE = re.compile(r"\b(class|struct)\b[^;={}]*$")
ENUM_HEAD_RE = re.compile(r"\benum\b[^;{}]*$")


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    message: str


def split_code_and_strings(line: str) -> Tuple[str, List[str]]:
    """Splits a line into its code, with // comments and string/char
    literal contents removed (quotes kept), and the contents of its string
    literals."""
    out = []
    strings = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if ch in "\"'":
            quote = ch
            out.append(quote)
            i += 1
            start = i
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            if quote == '"':
                strings.append(line[start:i])
            out.append(quote)
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), strings


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal contents (keeps quotes)."""
    return split_code_and_strings(line)[0]


def is_suppressed(line: str, rule: str) -> bool:
    m = ALLOW_RE.search(line)
    return bool(m and m.group(1) == rule)


def in_determinism_scope(path: str) -> bool:
    norm = os.path.normpath(path)
    return any(d in norm for d in DETERMINISM_DIRS)


def in_dir_scope(path: str, directory: str) -> bool:
    norm = os.path.normpath(path)
    return (directory + os.sep) in norm or norm.startswith(directory + os.sep)


def in_src_scope(path: str) -> bool:
    return in_dir_scope(path, SRC_DIR)


def is_file(path: str, target: str) -> bool:
    norm = os.path.normpath(path)
    return norm == target or norm.endswith(os.sep + target)


def check_banned_random(path: str, lines: List[str]) -> List[Finding]:
    findings = []
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        for pattern, why in BANNED_RANDOM:
            if pattern.search(code) and not is_suppressed(raw, "banned-random"):
                findings.append(Finding(path, lineno, "banned-random", why))
    return findings


def check_banned_clock(path: str, lines: List[str]) -> List[Finding]:
    if SUPPORT_DIR in os.path.normpath(path):
        return []
    findings = []
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if BANNED_CLOCK_RE.search(code) and not is_suppressed(
            raw, "banned-clock"
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "banned-clock",
                    "direct std::chrono clock read outside src/support; use "
                    "Stopwatch / Stopwatch::now_micros() instead",
                )
            )
    return findings


def check_ops_allocation(path: str, lines: List[str]) -> List[Finding]:
    if not is_file(path, OPS_FILE):
        return []
    findings = []
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        for pattern, why in OPS_ALLOCATION:
            if pattern.search(code) and not is_suppressed(
                raw, "ops-allocation"
            ):
                findings.append(Finding(path, lineno, "ops-allocation", why))
    return findings


def check_raw_mutex(path: str, lines: List[str]) -> List[Finding]:
    """std sync primitives are confined to src/support/sync.hpp."""
    if not in_src_scope(path) or is_file(path, SYNC_FILE):
        return []
    findings = []
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if RAW_MUTEX_RE.search(code) and not is_suppressed(raw, "raw-mutex"):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "raw-mutex",
                    "std synchronization primitive outside "
                    "src/support/sync.hpp; use the TSA-annotated wrappers "
                    "(Mutex/SharedMutex/CondVar/MutexLock/ReaderLock/"
                    "WriterLock) so Clang's thread-safety analysis sees the "
                    "acquisition",
                )
            )
    return findings


def check_metric_name(path: str, lines: List[str]) -> List[Finding]:
    """Metric registrations use literal lowercase dotted names."""
    if not in_src_scope(path):
        return []
    findings = []
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        m = METRIC_CALL_RE.search(code)
        if m is None or is_suppressed(raw, "metric-name"):
            continue
        kind = m.group(1)
        # Read the first argument from the raw text (the stripped line has
        # empty string contents). Wrapped argument lists continue on the
        # following lines.
        raw_m = METRIC_CALL_RE.search(raw)
        tail = raw[raw_m.end():] if raw_m else ""
        join = lineno  # 0-based index of the next line to pull in
        suppressed = False
        while True:
            stripped_tail = tail.lstrip()
            if stripped_tail and not stripped_tail.startswith("//"):
                break
            if join >= len(lines):
                stripped_tail = ""
                break
            tail = lines[join]
            if is_suppressed(tail, "metric-name"):
                suppressed = True
            join += 1
        if suppressed:
            continue
        literal = METRIC_LITERAL_RE.match(stripped_tail)
        if literal is None:
            findings.append(
                Finding(
                    path,
                    lineno,
                    "metric-name",
                    f"{kind}() name is not a string literal; metric names "
                    "must be greppable registered literals (a sanctioned "
                    "dynamic-name helper carries lint:allow(metric-name))",
                )
            )
            continue
        name = literal.group(1)
        if not METRIC_NAME_RE.match(name):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "metric-name",
                    f'metric name "{name}" violates the lowercase dotted '
                    "component.metric convention ([a-z0-9_] segments joined "
                    "by '.', at least two segments)",
                )
            )
    return findings


def check_tmp_path(path: str, lines: List[str]) -> List[Finding]:
    """Tests build their scratch paths per test, never as a fixed /tmp/."""
    if not in_dir_scope(path, TESTS_DIR):
        return []
    findings = []
    for lineno, raw in enumerate(lines, 1):
        _, strings = split_code_and_strings(raw)
        if any(text.startswith("/tmp/") for text in strings) and (
            not is_suppressed(raw, "tmp-path")
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "tmp-path",
                    'string literal starts with "/tmp/"; a fixed path is '
                    "shared by every test process that names it and races "
                    "under ctest -j — build it from ::testing::TempDir() "
                    "and the running test's name",
                )
            )
    return findings


def check_unordered_iteration(
    path: str, lines: List[str], extra_names: Set[str]
) -> List[Finding]:
    names = collect_unordered_names(lines) | extra_names
    findings = []
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        m = RANGE_FOR_RE.search(code)
        if not m:
            continue
        target = m.group(1).split("->")[-1].split(".")[-1]
        if target in names and not is_suppressed(raw, "unordered-iteration"):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "unordered-iteration",
                    f"range-for over std::unordered_* '{target}' has "
                    "nondeterministic order; iterate a sorted copy or an "
                    "insertion-ordered structure",
                )
            )
    return findings


def collect_unordered_names(lines: List[str]) -> Set[str]:
    names = set()
    for raw in lines:
        for m in UNORDERED_DECL_RE.finditer(strip_comments_and_strings(raw)):
            names.add(m.group(1))
    return names


def check_include_order(path: str, lines: List[str]) -> List[Finding]:
    """Each contiguous #include block must be lexicographically sorted."""
    if not in_src_scope(path):
        return []
    findings = []
    prev: Optional[str] = None
    prev_line = 0
    for lineno, raw in enumerate(lines, 1):
        m = INCLUDE_RE.match(strip_comments_and_strings(raw))
        if not m:
            prev = None  # any non-include line ends the block
            continue
        current = m.group(1)
        if prev is not None and current < prev and not is_suppressed(
            raw, "include-order"
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "include-order",
                    f"include {current} sorts before {prev} (line "
                    f"{prev_line}); keep each include block "
                    "lexicographically sorted",
                )
            )
        prev = current
        prev_line = lineno
    return findings


class _ClassScope:
    """One class/struct body while scanning for unannotated-guard."""

    def __init__(self) -> None:
        self.owns_lock = False
        # (lineno, member name) for members that lack annotation/exemption.
        self.unannotated: List[tuple] = []


def _classify_member(statement: str) -> Optional[str]:
    """Returns the member name if `statement` (annotation-stripped, no
    trailing ';') declares a plain data member, else None."""
    text = statement.strip()
    if not text or "(" in text:
        return None  # function/constructor declaration (or empty)
    first = text.split(None, 1)[0]
    if first in ("using", "typedef", "friend", "static", "constexpr",
                 "enum", "template", "operator", "return"):
        return None
    m = FIELD_NAME_RE.search(text)
    return m.group(1) if m else None


def check_unannotated_guard(path: str, lines: List[str]) -> List[Finding]:
    """Every field of a class owning a Mutex/SharedMutex must be annotated,
    atomic, static, or carry lint:allow(unannotated-guard)."""
    if not in_src_scope(path):
        return []
    findings: List[Finding] = []
    # Scope stack: each entry is a _ClassScope for class bodies or None for
    # any other brace scope (function body, namespace, enum, initializer).
    stack: List[Optional[_ClassScope]] = []
    buffer = ""            # statement text accumulated at the current scope
    buffer_start = 0       # line the current statement began on
    pending_allow = False  # lint:allow on a comment line above the member
    pending_guarded = False
    pending_atomic = False

    def innermost_class() -> Optional[_ClassScope]:
        return stack[-1] if stack and isinstance(stack[-1], _ClassScope) else None

    def finish_statement(end_line: int) -> None:
        nonlocal buffer, pending_allow, pending_guarded, pending_atomic
        scope = innermost_class()
        text = buffer.strip()
        buffer = ""
        allow = pending_allow
        guarded = pending_guarded or bool(GUARD_ANNOTATION_RE.search(text))
        atomic = pending_atomic or "std::atomic" in text
        pending_allow = pending_guarded = pending_atomic = False
        if scope is None or not text:
            return
        stripped = GUARD_ANNOTATION_RE.sub("", text).strip().rstrip(";").strip()
        if SYNC_PRIMITIVE_MEMBER_RE.match(stripped):
            if LOCK_MEMBER_RE.match(stripped):
                scope.owns_lock = True
            return
        name = _classify_member(stripped)
        if name is None:
            return
        if guarded or atomic or allow:
            return
        scope.unannotated.append((end_line, name))

    for lineno, raw in enumerate(lines, 1):
        if is_suppressed(raw, "unannotated-guard"):
            pending_allow = True
        code = strip_comments_and_strings(raw)
        code = ACCESS_SPECIFIER_RE.sub("", code)
        if buffer == "":
            buffer_start = lineno
        for ch in code:
            if ch == "{":
                head = buffer.strip()
                if CLASS_HEAD_RE.search(head) and not ENUM_HEAD_RE.search(head):
                    stack.append(_ClassScope())
                else:
                    stack.append(None)
                buffer = ""
                # annotations seen in a method signature die with the buffer
                pending_guarded = pending_atomic = False
            elif ch == "}":
                buffer = ""
                if stack:
                    closed = stack.pop()
                    if isinstance(closed, _ClassScope) and closed.owns_lock:
                        for member_line, name in closed.unannotated:
                            findings.append(
                                Finding(
                                    path,
                                    member_line,
                                    "unannotated-guard",
                                    f"member '{name}' in a class owning a "
                                    "Mutex/SharedMutex is neither "
                                    "TANGLEFL_GUARDED_BY-annotated, atomic, "
                                    "nor lint:allow(unannotated-guard) "
                                    "justified",
                                )
                            )
            elif ch == ";":
                finish_statement(lineno)
            else:
                buffer += ch
        buffer += " "  # line break separates tokens
    return findings


def lint_file(path: str, header_cache: Dict[str, List[str]]) -> List[Finding]:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        return [Finding(path, 0, "io-error", str(err))]

    findings: List[Finding] = []

    findings += check_banned_clock(path, lines)
    findings += check_ops_allocation(path, lines)
    findings += check_raw_mutex(path, lines)
    findings += check_unannotated_guard(path, lines)
    findings += check_include_order(path, lines)
    findings += check_metric_name(path, lines)
    findings += check_tmp_path(path, lines)

    if in_determinism_scope(path):
        findings += check_banned_random(path, lines)
        # Names declared in the companion header count too (members used
        # from the .cpp).
        extra: Set[str] = set()
        root, ext = os.path.splitext(path)
        if ext in (".cpp", ".cc", ".cxx"):
            header = root + ".hpp"
            if os.path.exists(header):
                if header not in header_cache:
                    with open(header, encoding="utf-8", errors="replace") as fh:
                        header_cache[header] = fh.read().splitlines()
                extra = collect_unordered_names(header_cache[header])
        findings += check_unordered_iteration(path, lines, extra)

    return findings


def gather_files(paths: List[str]) -> List[str]:
    files = []
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(CXX_EXTENSIONS):
                files.append(p)
        elif os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = [
                    d for d in dirnames
                    if not d.startswith((".", "build")) and d != "CMakeFiles"
                ]
                for fn in sorted(filenames):
                    if fn.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(dirpath, fn))
        else:
            print(f"lint.py: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the success message"
    )
    parser.add_argument(
        "--report", metavar="PATH",
        help="also write the findings (or the all-clean line) to this file, "
        "e.g. for upload as a CI artifact",
    )
    args = parser.parse_args()

    header_cache: Dict[str, List[str]] = {}
    findings: List[Finding] = []
    files = gather_files(args.paths)
    for path in files:
        findings += lint_file(path, header_cache)

    report_lines = [
        f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in sorted(findings)
    ]
    for line in report_lines:
        print(line)
    summary = (
        f"lint.py: {len(findings)} finding(s) in {len(files)} file(s)"
        if findings
        else f"lint.py: OK ({len(files)} files clean)"
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            for line in report_lines:
                fh.write(line + "\n")
            fh.write(summary + "\n")
    if findings:
        print(summary, file=sys.stderr)
        return 1
    if not args.quiet:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
