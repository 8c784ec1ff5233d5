#include "tangle/health.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/rng.hpp"
#include "tangle/model_store.hpp"
#include "tangle/tangle.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::tangle {
namespace {

/// Hand-built DAG with payloads ready to attach (test_tangle.cpp idiom).
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
    return tangle.add_transaction(parents, added.id, added.hash, round, {});
  }
};

/// Probes `view` with `tracker` over a freshly built cone cache entry.
HealthSample probe(HealthTracker& tracker, const TangleView& view,
                   std::uint64_t now, Rng& rng) {
  return tracker.sample(view, *ViewCacheEntry::build(view), now, rng);
}

HealthConfig no_confirmation(std::uint64_t orphan_age = 5) {
  HealthConfig config;
  config.orphan_age = orphan_age;
  config.track_confirmation = false;
  return config;
}

TEST(HealthTracker, GenesisOnlyIsHealthy) {
  Fixture f;
  HealthTracker tracker(no_confirmation());
  Rng rng(1);
  const HealthSample sample = probe(tracker, f.tangle.view(), 100, rng);
  EXPECT_EQ(sample.tangle_size, 1u);
  EXPECT_EQ(sample.tip_count, 1u);  // genesis is the sole tip...
  EXPECT_EQ(sample.orphan_count, 0u);  // ...but never an orphan
  EXPECT_DOUBLE_EQ(sample.orphan_rate, 0.0);
  EXPECT_TRUE(sample.first_approval_delays.empty());
}

TEST(HealthTracker, DepthsTipsAndDiamond) {
  // genesis <- {a, b} <- c : c is the only tip; a, b sit one step below.
  Fixture f;
  const TxIndex a = f.add({0, 0}, 1.0f, 1);
  const TxIndex b = f.add({0, 0}, 2.0f, 1);
  f.add({a, b}, 3.0f, 2);
  HealthTracker tracker(no_confirmation());
  Rng rng(1);
  const HealthSample sample = probe(tracker, f.tangle.view(), 2, rng);
  EXPECT_EQ(sample.tangle_size, 4u);
  EXPECT_EQ(sample.tip_count, 1u);
  EXPECT_EQ(sample.approval_depth_max, 2u);  // genesis: two hops below c
  EXPECT_DOUBLE_EQ(sample.approval_depth_mean, (0.0 + 1.0 + 1.0 + 2.0) / 4.0);
  EXPECT_DOUBLE_EQ(sample.approval_depth_p50, 1.0);
}

TEST(HealthTracker, OrphanAgingAgainstNow) {
  // a (round 1) stays an unapproved tip; c (round 3) approves only b.
  Fixture f;
  f.add({0, 0}, 1.0f, 1);                      // a: the future orphan
  const TxIndex b = f.add({0, 0}, 2.0f, 1);
  f.add({b, b}, 3.0f, 3);                      // c
  HealthTracker tracker(no_confirmation(/*orphan_age=*/2));
  Rng rng(1);
  // At now=2, a is only 1 old: not yet an orphan.
  HealthSample sample = probe(tracker, f.tangle.view(), 2, rng);
  EXPECT_EQ(sample.orphan_count, 0u);
  // At now=3, a's age reaches the threshold; c (age 0) stays healthy.
  sample = probe(tracker, f.tangle.view(), 3, rng);
  EXPECT_EQ(sample.tip_count, 2u);
  EXPECT_EQ(sample.orphan_count, 1u);
  EXPECT_DOUBLE_EQ(sample.orphan_rate, 1.0 / 3.0);  // 3 non-genesis txs
}

TEST(HealthTracker, MaxOrphanAgeNeverFlagsOrphans) {
  // Regression: the aging test used to compute round + orphan_age, which
  // wrapped for orphan_age = UINT64_MAX and flagged every fresh tip as an
  // orphan. The subtraction form must classify nothing, ever.
  Fixture f;
  f.add({0, 0}, 1.0f, 1);  // an unapproved tip from round 1
  HealthTracker tracker(
      no_confirmation(std::numeric_limits<std::uint64_t>::max()));
  Rng rng(1);
  const HealthSample sample =
      probe(tracker, f.tangle.view(), /*now=*/1'000'000, rng);
  EXPECT_EQ(sample.orphan_count, 0u);
  EXPECT_DOUBLE_EQ(sample.orphan_rate, 0.0);
}

TEST(HealthTracker, FirstApprovalRecordedExactlyOnce) {
  Fixture f;
  const TxIndex a = f.add({0, 0}, 1.0f, 1);
  const TxIndex b = f.add({0, 0}, 2.0f, 1);
  HealthTracker tracker(no_confirmation());
  Rng rng(1);
  // Round 1: a and b are unapproved; nothing to record.
  HealthSample sample = probe(tracker, f.tangle.view(), 1, rng);
  EXPECT_TRUE(sample.first_approval_delays.empty());

  f.add({a, b}, 3.0f, 3);  // c approves both at round 3
  sample = probe(tracker, f.tangle.view(), 3, rng);
  ASSERT_EQ(sample.first_approval_delays.size(), 2u);
  EXPECT_EQ(sample.first_approval_delays[0], 2u);  // 3 - 1, for a
  EXPECT_EQ(sample.first_approval_delays[1], 2u);  // 3 - 1, for b

  // Re-sampling must not re-report the same events.
  sample = probe(tracker, f.tangle.view(), 4, rng);
  EXPECT_TRUE(sample.first_approval_delays.empty());
}

TEST(HealthTracker, ConfirmationOnChain) {
  // genesis <- a <- b: every walk crosses a, so a confirms immediately.
  Fixture f;
  const TxIndex a = f.add({0, 0}, 1.0f, 1);
  f.add({a, a}, 2.0f, 2);
  HealthConfig config;
  config.confirmation_threshold = 0.5;
  config.confidence.sample_rounds = 8;
  HealthTracker tracker(config);
  Rng rng(1);
  HealthSample sample = probe(tracker, f.tangle.view(), 3, rng);
  EXPECT_GE(sample.confirmed_count, 1u);
  ASSERT_FALSE(sample.confirmation_delays.empty());
  // a published at round 1, confirmed when first observed at now=3.
  EXPECT_EQ(sample.confirmation_delays.front(), 2u);

  // Confirmation is cumulative and recorded once.
  const std::size_t confirmed = sample.confirmed_count;
  sample = probe(tracker, f.tangle.view(), 4, rng);
  EXPECT_GE(sample.confirmed_count, confirmed);
  EXPECT_TRUE(sample.confirmation_delays.empty());
}

TEST(HealthTracker, PartialViewRestrictsStats) {
  // The membership mask hides c; a and b become tips again in that view.
  Fixture f;
  const TxIndex a = f.add({0, 0}, 1.0f, 1);
  const TxIndex b = f.add({0, 0}, 2.0f, 1);
  f.add({a, b}, 3.0f, 2);
  std::vector<bool> members = {true, true, true, false};
  const TangleView view(f.tangle, members);
  HealthTracker tracker(no_confirmation());
  Rng rng(1);
  const HealthSample sample = probe(tracker, view, 2, rng);
  EXPECT_EQ(sample.tangle_size, 3u);
  EXPECT_EQ(sample.tip_count, 2u);
  EXPECT_EQ(sample.approval_depth_max, 1u);  // genesis is one hop below a/b
}

TEST(HealthTracker, DeterministicAcrossTrackers) {
  Fixture f;
  const TxIndex a = f.add({0, 0}, 1.0f, 1);
  const TxIndex b = f.add({a, a}, 2.0f, 2);
  f.add({a, b}, 3.0f, 3);
  HealthConfig config;
  config.confidence.sample_rounds = 4;
  HealthTracker t1(config);
  HealthTracker t2(config);
  Rng r1(9);
  Rng r2(9);
  const HealthSample s1 = probe(t1, f.tangle.view(), 4, r1);
  const HealthSample s2 = probe(t2, f.tangle.view(), 4, r2);
  EXPECT_EQ(s1.tip_count, s2.tip_count);
  EXPECT_EQ(s1.confirmed_count, s2.confirmed_count);
  EXPECT_EQ(s1.first_approval_delays, s2.first_approval_delays);
  EXPECT_EQ(s1.confirmation_delays, s2.confirmation_delays);
  EXPECT_DOUBLE_EQ(s1.approval_depth_mean, s2.approval_depth_mean);
}

}  // namespace
}  // namespace tanglefl::tangle
