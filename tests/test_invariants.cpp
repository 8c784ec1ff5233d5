// Exercises the debug invariant layer (tangle/invariants.hpp): every check
// must fire on a deliberately corrupted tangle with an actionable message,
// and stay silent on healthy ones. TangleTestAccess is the test-only
// backdoor that forges the corruption an encapsulated Tangle can never
// reach through its public API.
#include "tangle/invariants.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "tangle/confidence.hpp"
#include "tangle/model_store.hpp"
#include "tangle/tangle.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::tangle {
namespace {

struct Fixture {
  ModelStore store;
  Tangle tangle;

  Fixture() : tangle(make_genesis(store)) {}

  static Tangle make_genesis(ModelStore& store) {
    const auto added = store.add({0.0f});
    return Tangle(added.id, added.hash);
  }

  TxIndex add(std::vector<TxIndex> parents, float value,
              std::uint64_t round) {
    const auto added = store.add({value});
    return tangle.add_transaction(parents, added.id, added.hash, round);
  }

  /// Diamond: genesis <- a, b <- c.
  void build_diamond() {
    const TxIndex a = add({0, 0}, 1.0f, 1);
    const TxIndex b = add({0, 0}, 2.0f, 1);
    add({a, b}, 3.0f, 2);
  }
};

bool any_violation_mentions(const std::vector<std::string>& violations,
                            const std::string& needle) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

TEST(Invariants, HealthyTangleHasNoViolations) {
  Fixture f;
  f.build_diamond();
  EXPECT_TRUE(f.tangle.check_invariants().empty());
  EXPECT_NO_THROW(assert_invariants(f.tangle));
}

TEST(Invariants, HealthyGenesisOnlyTangle) {
  Fixture f;
  EXPECT_TRUE(f.tangle.check_invariants().empty());
}

TEST(Invariants, ForgedForwardParentReportsCycle) {
  Fixture f;
  f.build_diamond();
  // Rewire tx 1's parent edge to point at tx 2 AND tx 2's at tx 1 would be
  // a 2-cycle; a single forward edge already breaks the topological order,
  // which is the cycle witness the checker reports.
  TangleTestAccess::parent_indices(f.tangle)[1] = {2};
  const auto violations = f.tangle.check_invariants();
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(any_violation_mentions(violations, "cycle"))
      << violations.front();
  EXPECT_THROW(assert_invariants(f.tangle), CheckFailure);
}

TEST(Invariants, SelfParentReportsCycle) {
  Fixture f;
  f.build_diamond();
  TangleTestAccess::parent_indices(f.tangle)[2] = {2};
  EXPECT_TRUE(any_violation_mentions(f.tangle.check_invariants(), "cycle"));
}

TEST(Invariants, MissingParentReported) {
  Fixture f;
  f.build_diamond();
  TangleTestAccess::parent_indices(f.tangle)[1] = {99};
  const auto violations = f.tangle.check_invariants();
  EXPECT_TRUE(any_violation_mentions(violations, "does not exist"))
      << (violations.empty() ? "no violations" : violations.front());
}

TEST(Invariants, StaleApproverCountReported) {
  Fixture f;
  f.build_diamond();
  // Drop tx 3's registration from tx 1's approver list: the cumulative
  // weights the biased walk computes from these lists would silently skew.
  TangleTestAccess::approvers(f.tangle)[1].clear();
  const auto violations = f.tangle.check_invariants();
  EXPECT_TRUE(any_violation_mentions(violations, "approver"))
      << (violations.empty() ? "no violations" : violations.front());
}

TEST(Invariants, PhantomApproverReported) {
  Fixture f;
  f.build_diamond();
  TangleTestAccess::approvers(f.tangle)[2].push_back(1);
  EXPECT_TRUE(
      any_violation_mentions(f.tangle.check_invariants(), "approver"));
}

TEST(Invariants, ForgedHeaderIdReported) {
  Fixture f;
  f.build_diamond();
  // Bump the round without recomputing the id: header integrity broken.
  TangleTestAccess::transactions(f.tangle)[3].round = 77;
  const auto violations = f.tangle.check_invariants();
  EXPECT_TRUE(any_violation_mentions(violations, "id does not hash"))
      << (violations.empty() ? "no violations" : violations.front());
}

TEST(Invariants, DecreasingRoundsReported) {
  Fixture f;
  f.build_diamond();
  auto& txs = TangleTestAccess::transactions(f.tangle);
  txs[1].round = 5;
  txs[1].id = compute_transaction_id(txs[1].parents, txs[1].payload_hash,
                                     txs[1].round, txs[1].nonce);
  EXPECT_TRUE(
      any_violation_mentions(f.tangle.check_invariants(), "non-decreasing"));
}

TEST(Invariants, BrokenGenesisConventionReported) {
  Fixture f;
  TangleTestAccess::transactions(f.tangle)[0].parents.clear();
  EXPECT_TRUE(
      any_violation_mentions(f.tangle.check_invariants(), "genesis"));
}

TEST(Invariants, EveryMessageNamesTheTransaction) {
  Fixture f;
  f.build_diamond();
  TangleTestAccess::parent_indices(f.tangle)[2] = {9};
  for (const std::string& v : f.tangle.check_invariants()) {
    EXPECT_NE(v.find("tx "), std::string::npos) << v;
  }
}

// --- confidence invariants -------------------------------------------------

TEST(ConfidenceInvariants, HealthyConfidencesPass) {
  Fixture f;
  f.build_diamond();
  const TangleView view = f.tangle.view();
  Rng rng(42);
  ConfidenceConfig config;
  config.sample_rounds = 16;
  const ConfidenceWindow conf =
      compute_confidences(view, *ViewCacheEntry::build(view), rng, config);
  EXPECT_TRUE(find_confidence_violations(view, conf).empty());
}

TEST(ConfidenceInvariants, OutOfRangeReported) {
  Fixture f;
  f.build_diamond();
  const TangleView view = f.tangle.view();
  ConfidenceWindow conf{.floor = 0,
                        .values = std::vector<double>(view.size(), 0.5)};
  conf.values[1] = 1.5;
  EXPECT_TRUE(any_violation_mentions(
      find_confidence_violations(view, conf), "outside [0, 1]"));
  conf.values[1] = -0.25;
  EXPECT_FALSE(find_confidence_violations(view, conf).empty());
}

TEST(ConfidenceInvariants, NonMonotoneAlongEdgeReported) {
  Fixture f;
  f.build_diamond();
  const TangleView view = f.tangle.view();
  // Child (tx 3) more confident than its parent (tx 1): impossible, every
  // sampled walk hitting tx 3 also hits tx 1 via the past cone.
  const ConfidenceWindow conf{.floor = 0, .values = {1.0, 0.2, 0.9, 0.8}};
  EXPECT_TRUE(any_violation_mentions(
      find_confidence_violations(view, conf), "monotonicity"));
}

TEST(ConfidenceInvariants, FrozenHistoryReadsAsFullConfidence) {
  Fixture f;
  f.build_diamond();
  const TangleView view = f.tangle.view();
  // Window [2, 4): frozen tx 1 reads 1.0, above its approver tx 3.
  ConfidenceWindow conf{.floor = 2, .values = {0.9, 0.8}};
  EXPECT_TRUE(find_confidence_violations(view, conf).empty());
  // Inside the window the edge 2 <- 3 is still audited.
  conf.values = {0.7, 0.8};
  EXPECT_TRUE(any_violation_mentions(
      find_confidence_violations(view, conf), "monotonicity"));
}

TEST(ConfidenceInvariants, SizeMismatchReported) {
  Fixture f;
  f.build_diamond();
  const ConfidenceWindow conf{.floor = 1, .values = {0.5, 0.5}};
  EXPECT_FALSE(
      find_confidence_violations(f.tangle.view(), conf).empty());
}

// --- DCHECK plumbing -------------------------------------------------------

TEST(Check, DcheckMsgThrowsCheckFailureWhenEnabled) {
#if defined(TANGLEFL_DEBUG_CHECKS)
  EXPECT_THROW(TANGLEFL_DCHECK_MSG(1 == 2, "one is not two"), CheckFailure);
  try {
    TANGLEFL_DCHECK_MSG(false, "context message");
  } catch (const CheckFailure& failure) {
    EXPECT_NE(std::string(failure.what()).find("context message"),
              std::string::npos);
  }
#else
  // Compiled out: the condition must not be evaluated.
  bool evaluated = false;
  TANGLEFL_DCHECK([&] { evaluated = true; return false; }());
  EXPECT_FALSE(evaluated);
#endif
}

TEST(Check, MutationPathsRevalidateUnderDebugChecks) {
#if defined(TANGLEFL_DEBUG_CHECKS)
  // Corrupt, then mutate through the public API: the post-mutation audit
  // must trip. (The corruption is planted *before* add_transaction so the
  // add itself is the detection point.)
  Fixture f;
  f.build_diamond();
  TangleTestAccess::approvers(f.tangle)[0].clear();
  const auto added = f.store.add({9.0f});
  const std::vector<TxIndex> parents = {3};
  EXPECT_THROW(
      f.tangle.add_transaction(parents, added.id, added.hash, 3),
      CheckFailure);
#else
  GTEST_SKIP() << "TANGLEFL_DEBUG_CHECKS is off in this configuration";
#endif
}

}  // namespace
}  // namespace tanglefl::tangle
