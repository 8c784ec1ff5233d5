#!/usr/bin/env python3
"""Self-test for tools/lint.py: per-rule fixtures that must fire on bad
code, stay quiet on good code, and honor lint:allow suppressions.

Runs with the standard library only (unittest + tempfile); registered with
CTest as `lint_selftest` so a lint rule can never rot silently — if a regex
or the unannotated-guard scanner stops matching, this test fails before the
real lint quietly passes everything.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
import unittest

_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "tanglefl_lint", os.path.join(_TOOLS_DIR, "lint.py")
)
lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint)


class LintFixtureTest(unittest.TestCase):
    """Base: writes fixture files into a fake source tree and lints them."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="lint_selftest_")
        self.root = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, relpath: str, content: str) -> str:
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        return path

    def findings(self, relpath: str, content: str, rule: str = None):
        path = self.write(relpath, content)
        found = lint.lint_file(path, {})
        if rule is not None:
            found = [f for f in found if f.rule == rule]
        return found

    def assert_fires(self, relpath, content, rule, count=1):
        found = self.findings(relpath, content, rule)
        self.assertEqual(
            len(found), count,
            f"expected {count} {rule} finding(s), got {found}",
        )

    def assert_quiet(self, relpath, content, rule):
        found = self.findings(relpath, content, rule)
        self.assertEqual(len(found), 0, f"expected no {rule} findings, got {found}")


class RawMutexTest(LintFixtureTest):
    def test_fires_on_std_mutex_member(self):
        self.assert_fires(
            "src/tangle/store.hpp",
            "class Store {\n  std::mutex mutex_;\n};\n",
            "raw-mutex",
        )

    def test_fires_on_lock_guard_and_condition_variable(self):
        self.assert_fires(
            "src/core/engine.cpp",
            "void f() {\n"
            "  std::lock_guard<std::mutex> lock(m_);\n"
            "  std::condition_variable cv;\n"
            "}\n",
            "raw-mutex",
            count=2,
        )

    def test_fires_on_unique_and_shared_lock(self):
        self.assert_fires(
            "src/core/engine.cpp",
            "std::unique_lock<std::shared_mutex> lock(m_);\n"
            "std::shared_lock<std::shared_mutex> rlock(m_);\n",
            "raw-mutex",
            count=2,
        )

    def test_quiet_in_sync_hpp(self):
        self.assert_quiet(
            "src/support/sync.hpp",
            "class Mutex {\n  std::mutex raw_;\n};\n",
            "raw-mutex",
        )

    def test_quiet_outside_src(self):
        self.assert_quiet(
            "tests/test_foo.cpp",
            "std::mutex m;\n",
            "raw-mutex",
        )

    def test_quiet_on_wrappers(self):
        self.assert_quiet(
            "src/tangle/store.hpp",
            "class Store {\n  mutable Mutex mutex_;\n  MutexLock g(mutex_);\n};\n",
            "raw-mutex",
        )

    def test_respects_allow(self):
        self.assert_quiet(
            "src/core/engine.cpp",
            "std::mutex m;  // lint:allow(raw-mutex) interop with legacy API\n",
            "raw-mutex",
        )

    def test_comment_mention_does_not_fire(self):
        self.assert_quiet(
            "src/core/engine.cpp",
            "// wraps std::mutex under the hood\n",
            "raw-mutex",
        )


class UnannotatedGuardTest(LintFixtureTest):
    def test_fires_on_bare_member_next_to_mutex(self):
        self.assert_fires(
            "src/tangle/cache.hpp",
            "class Cache {\n"
            " private:\n"
            "  mutable Mutex mutex_;\n"
            "  std::vector<int> slots_;\n"
            "};\n",
            "unannotated-guard",
        )

    def test_quiet_when_annotated(self):
        self.assert_quiet(
            "src/tangle/cache.hpp",
            "class Cache {\n"
            "  mutable Mutex mutex_;\n"
            "  std::vector<int> slots_ TANGLEFL_GUARDED_BY(mutex_);\n"
            "  const Tangle* tangle_ TANGLEFL_PT_GUARDED_BY(mutex_) = nullptr;\n"
            "};\n",
            "unannotated-guard",
        )

    def test_quiet_on_atomic_static_and_sync_members(self):
        self.assert_quiet(
            "src/tangle/cache.hpp",
            "class Cache {\n"
            "  static constexpr std::size_t kShards = 4;\n"
            "  mutable SharedMutex mutex_;\n"
            "  CondVar cv_;\n"
            "  std::atomic<bool> done_{false};\n"
            "  std::uint64_t tick_ TANGLEFL_GUARDED_BY(mutex_) = 0;\n"
            "};\n",
            "unannotated-guard",
        )

    def test_respects_trailing_allow(self):
        self.assert_quiet(
            "src/tangle/cache.hpp",
            "class Cache {\n"
            "  Mutex mutex_;\n"
            "  const std::size_t capacity_;"
            "  // lint:allow(unannotated-guard) immutable\n"
            "};\n",
            "unannotated-guard",
        )

    def test_respects_allow_on_preceding_line(self):
        self.assert_quiet(
            "src/tangle/cache.hpp",
            "class Cache {\n"
            "  Mutex mutex_;\n"
            "  // lint:allow(unannotated-guard) set once in ctor, joined in\n"
            "  // shutdown, never mutated in between.\n"
            "  std::vector<std::thread> workers_;\n"
            "};\n",
            "unannotated-guard",
        )

    def test_quiet_when_no_lock_owned(self):
        self.assert_quiet(
            "src/tangle/cache.hpp",
            "class Plain {\n"
            "  std::vector<int> values_;\n"
            "  std::size_t count_ = 0;\n"
            "};\n",
            "unannotated-guard",
        )

    def test_nested_struct_fields_scored_separately(self):
        # The nested lock-free struct's fields must not fire, while the
        # outer class's bare member after the nested scope closes must.
        self.assert_fires(
            "src/tangle/cache.hpp",
            "class Cache {\n"
            "  struct Slot {\n"
            "    std::shared_ptr<const Entry> entry;\n"
            "    std::uint64_t last_used = 0;\n"
            "  };\n"
            "  mutable Mutex mutex_;\n"
            "  std::vector<Slot> slots_;\n"
            "};\n",
            "unannotated-guard",
        )

    def test_nested_struct_with_own_lock(self):
        self.assert_fires(
            "src/core/engine.hpp",
            "class Engine {\n"
            "  struct Shard {\n"
            "    mutable SharedMutex mutex;\n"
            "    std::map<int, int> results;\n"
            "  };\n"
            "  std::array<Shard, 4> shards_{};"
            "  // lint:allow(unannotated-guard) elements self-guarded\n"
            "};\n",
            "unannotated-guard",
        )

    def test_methods_and_inline_bodies_ignored(self):
        self.assert_quiet(
            "src/tangle/cache.hpp",
            "class Cache {\n"
            " public:\n"
            "  std::size_t size() const;\n"
            "  void clear() { int dropped = 0; (void)dropped; }\n"
            "  Cache& operator=(const Cache&) = delete;\n"
            " private:\n"
            "  mutable Mutex mutex_;\n"
            "  std::size_t count_ TANGLEFL_GUARDED_BY(mutex_) = 0;\n"
            "};\n",
            "unannotated-guard",
        )

    def test_enum_class_is_not_a_class_scope(self):
        self.assert_quiet(
            "src/support/level.hpp",
            "enum class Level { kInfo, kWarn };\n"
            "class Holder {\n"
            "  Mutex mutex_;\n"
            "  Level level_ TANGLEFL_GUARDED_BY(mutex_) = Level::kInfo;\n"
            "};\n",
            "unannotated-guard",
        )

    def test_multiline_annotated_declaration(self):
        self.assert_quiet(
            "src/tangle/store.hpp",
            "class Store {\n"
            "  mutable SharedMutex mutex_;\n"
            "  std::unordered_map<std::string, int> by_hash_\n"
            "      TANGLEFL_GUARDED_BY(mutex_);\n"
            "};\n",
            "unannotated-guard",
        )


class IncludeOrderTest(LintFixtureTest):
    def test_fires_on_unsorted_block(self):
        self.assert_fires(
            "src/core/engine.cpp",
            '#include <vector>\n#include <memory>\n',
            "include-order",
        )

    def test_quiet_on_sorted_blocks(self):
        self.assert_quiet(
            "src/core/engine.cpp",
            '#include "core/engine.hpp"\n'
            "\n"
            "#include <memory>\n"
            "#include <vector>\n"
            "\n"
            '#include "support/log.hpp"\n'
            '#include "support/sync.hpp"\n',
            "include-order",
        )

    def test_blank_line_resets_block(self):
        # The own-header-first convention relies on blank lines splitting
        # blocks: "core/engine.hpp" before <vector> is fine across a break.
        self.assert_quiet(
            "src/core/engine.cpp",
            '#include "core/engine.hpp"\n\n#include <vector>\n',
            "include-order",
        )

    def test_respects_allow(self):
        self.assert_quiet(
            "src/core/engine.cpp",
            "#include <vector>\n"
            "#include <memory>  // lint:allow(include-order) must follow\n",
            "include-order",
        )

    def test_quiet_outside_src(self):
        self.assert_quiet(
            "bench/bench_foo.cpp",
            "#include <vector>\n#include <memory>\n",
            "include-order",
        )


class DeterminismRulesTest(LintFixtureTest):
    def test_banned_random_fires_in_core(self):
        self.assert_fires(
            "src/core/sim.cpp", "std::mt19937 gen(42);\n", "banned-random"
        )

    def test_banned_random_quiet_in_support(self):
        self.assert_quiet(
            "src/support/rng.cpp", "std::mt19937 gen(42);\n", "banned-random"
        )

    def test_banned_clock_fires_outside_support(self):
        self.assert_fires(
            "src/tangle/node.cpp",
            "auto t = std::chrono::steady_clock::now();\n",
            "banned-clock",
        )

    def test_banned_clock_quiet_in_support(self):
        self.assert_quiet(
            "src/support/stopwatch.cpp",
            "auto t = std::chrono::steady_clock::now();\n",
            "banned-clock",
        )

    def test_unordered_iteration_fires(self):
        self.assert_fires(
            "src/core/sim.cpp",
            "std::unordered_map<int, int> scores_;\n"
            "void f() {\n"
            "  for (const auto& kv : scores_) { (void)kv; }\n"
            "}\n",
            "unordered-iteration",
        )

    def test_unordered_iteration_respects_allow(self):
        self.assert_quiet(
            "src/core/sim.cpp",
            "std::unordered_map<int, int> scores_;\n"
            "void f() {\n"
            "  for (const auto& kv : scores_) { }"
            "  // lint:allow(unordered-iteration) order-independent fold\n"
            "}\n",
            "unordered-iteration",
        )

    def test_ops_allocation_fires_only_in_ops_cpp(self):
        bad = "void f() { float* p = new float[8]; (void)p; }\n"
        self.assert_fires("src/nn/ops.cpp", bad, "ops-allocation")
        self.assert_quiet("src/nn/layers.cpp", bad, "ops-allocation")


class MetricNameTest(LintFixtureTest):
    def test_quiet_on_conventional_names(self):
        self.assert_quiet(
            "src/core/sim.cpp",
            'auto& c = obs::MetricsRegistry::global().counter("sim.rounds");\n'
            'auto& g = registry.gauge("tangle.health.tip_count");\n'
            'auto& h = registry.histogram("nn.gemm.dims", layout);\n',
            "metric-name",
        )

    def test_fires_on_bad_casing_and_shape(self):
        self.assert_fires(
            "src/core/sim.cpp",
            'auto& c = registry.counter("SimRounds");\n'
            'auto& g = registry.gauge("single_segment");\n'
            'auto& h = registry.histogram("sim..rounds");\n',
            "metric-name",
            count=3,
        )

    def test_fires_on_runtime_concatenated_name(self):
        self.assert_fires(
            "src/core/sim.cpp",
            'auto& c = registry.counter("sim." + phase);\n',
            "metric-name",
        )

    def test_literal_on_continuation_line(self):
        # The prevailing style wraps the argument list, so the literal sits
        # on the line after `.histogram(`.
        self.assert_quiet(
            "src/nn/ops.cpp",
            "static obs::Histogram& hist = "
            "obs::MetricsRegistry::global().histogram(\n"
            '    "nn.gemm.dims", layout);\n',
            "metric-name",
        )
        self.assert_fires(
            "src/nn/ops.cpp",
            "static obs::Histogram& hist = "
            "obs::MetricsRegistry::global().histogram(\n"
            '    "BadName", layout);\n',
            "metric-name",
        )

    def test_respects_allow_on_call_and_continuation_line(self):
        self.assert_quiet(
            "src/core/sim.cpp",
            "auto& c = registry.counter(name);"
            "  // lint:allow(metric-name) per-shard helper\n",
            "metric-name",
        )
        self.assert_quiet(
            "src/core/sim.cpp",
            "auto& c = registry.counter(\n"
            "    name);  // lint:allow(metric-name) per-shard helper\n",
            "metric-name",
        )

    def test_comment_mention_does_not_fire(self):
        self.assert_quiet(
            "src/core/sim.cpp",
            '// see registry.counter("whatever") for the pattern\n',
            "metric-name",
        )

    def test_quiet_outside_src(self):
        self.assert_quiet(
            "tests/test_metrics.cpp",
            'auto& c = registry.counter("BadName");\n',
            "metric-name",
        )


class TmpPathTest(LintFixtureTest):
    def test_fires_on_fixed_tmp_literal_in_tests(self):
        self.assert_fires(
            "tests/test_io.cpp",
            'const char* kPath = "/tmp/tanglefl_test.bin";\n'
            'save(std::string("/tmp/other.csv"));\n',
            "tmp-path",
            count=2,
        )

    def test_quiet_on_comments_and_non_prefix_literals(self):
        self.assert_quiet(
            "tests/test_io.cpp",
            '// never write "/tmp/x" here\n'
            'const std::string path = ::testing::TempDir() + "a.csv";\n'
            'const char* note = "not /tmp/ at the start";\n',
            "tmp-path",
        )

    def test_respects_allow(self):
        self.assert_quiet(
            "tests/test_io.cpp",
            'open("/tmp/x");  // lint:allow(tmp-path) reason\n',
            "tmp-path",
        )

    def test_quiet_outside_tests(self):
        self.assert_quiet(
            "src/support/io.cpp",
            'const char* kPath = "/tmp/tanglefl.bin";\n',
            "tmp-path",
        )


class CliTest(LintFixtureTest):
    """End-to-end: exit codes and --report, via the real CLI."""

    def run_cli(self, *argv):
        import subprocess

        return subprocess.run(
            [sys.executable, os.path.join(_TOOLS_DIR, "lint.py"), *argv],
            capture_output=True,
            text=True,
        )

    def test_exit_zero_and_report_on_clean_tree(self):
        self.write("src/core/ok.cpp", "int answer() { return 42; }\n")
        report = os.path.join(self.root, "report.txt")
        proc = self.run_cli(os.path.join(self.root, "src"), "--report", report)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(report, encoding="utf-8") as fh:
            self.assertIn("OK", fh.read())

    def test_exit_one_and_report_on_findings(self):
        self.write("src/core/bad.cpp", "std::mutex m;\n")
        report = os.path.join(self.root, "report.txt")
        proc = self.run_cli(os.path.join(self.root, "src"), "--report", report)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        with open(report, encoding="utf-8") as fh:
            content = fh.read()
        self.assertIn("raw-mutex", content)
        self.assertIn("1 finding(s)", content)

    def test_exit_two_on_missing_path(self):
        proc = self.run_cli(os.path.join(self.root, "does-not-exist"))
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
