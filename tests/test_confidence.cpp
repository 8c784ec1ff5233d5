#include "tangle/confidence.hpp"

#include <gtest/gtest.h>

#include "tangle/model_store.hpp"
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

  TxIndex add(std::vector<TxIndex> parents, float value, std::uint64_t round) {
    const auto added = store.add({value});
    return tangle.add_transaction(parents, added.id, added.hash, round);
  }

  /// Confidences over the whole ledger, walked over a fresh cone entry.
  std::vector<double> confidences(Rng& rng,
                                  const ConfidenceConfig& config) const {
    const TangleView view = tangle.view();
    return compute_confidences(view, *ViewCacheEntry::build(view), rng,
                               config);
  }

  std::vector<double> ratings() const {
    return compute_ratings(*ViewCacheEntry::build(tangle.view()));
  }
};

TEST(Confidence, GenesisAlwaysFullConfidence) {
  Fixture f;
  f.add({0}, 1.0f, 1);
  f.add({0}, 2.0f, 1);
  Rng rng(1);
  const auto confidence = f.confidences(rng, {});
  EXPECT_DOUBLE_EQ(confidence[0], 1.0);
}

TEST(Confidence, ValuesInUnitInterval) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  f.add({0}, 2.0f, 1);
  f.add({a}, 3.0f, 2);
  Rng rng(2);
  const auto confidence = f.confidences(rng, {});
  for (const double c : confidence) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(Confidence, TransactionApprovedByAllTipsHasFullConfidence) {
  Fixture f;
  // genesis <- mid <- {t1, t2}: every walk's tip approves mid.
  const TxIndex mid = f.add({0}, 1.0f, 1);
  f.add({mid}, 2.0f, 2);
  f.add({mid}, 3.0f, 2);
  Rng rng(3);
  ConfidenceConfig config;
  config.sample_rounds = 64;
  const auto confidence = f.confidences(rng, config);
  EXPECT_DOUBLE_EQ(confidence[mid], 1.0);
}

TEST(Confidence, ForkSplitsConfidence) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  Rng rng(4);
  ConfidenceConfig config;
  config.sample_rounds = 400;
  config.tip_selection.alpha = 0.0;
  const auto confidence = f.confidences(rng, config);
  EXPECT_NEAR(confidence[a], 0.5, 0.1);
  EXPECT_NEAR(confidence[b], 0.5, 0.1);
  EXPECT_NEAR(confidence[a] + confidence[b], 1.0, 1e-9);
}

TEST(Confidence, ZeroSampleRoundsGiveZeros) {
  Fixture f;
  f.add({0}, 1.0f, 1);
  Rng rng(5);
  ConfidenceConfig config;
  config.sample_rounds = 0;
  const auto confidence = f.confidences(rng, config);
  for (const double c : confidence) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(Confidence, DeterministicInRng) {
  Fixture f;
  for (int i = 0; i < 5; ++i) f.add({0}, static_cast<float>(i), 1);
  Rng rng_a(6), rng_b(6);
  EXPECT_EQ(f.confidences(rng_a, {}), f.confidences(rng_b, {}));
}

TEST(Ratings, MatchPastConeSizes) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  const TxIndex c = f.add({a, b}, 3.0f, 2);
  const auto ratings = f.ratings();
  EXPECT_DOUBLE_EQ(ratings[0], 0.0);
  EXPECT_DOUBLE_EQ(ratings[a], 1.0);
  EXPECT_DOUBLE_EQ(ratings[c], 3.0);
}

TEST(Ratings, AllTransactionsContributeEqually) {
  // The prototype weighs all transactions the same (Section III-A): a
  // chain of k transactions gives rating k for the newest.
  Fixture f;
  TxIndex tip = 0;
  for (int i = 0; i < 6; ++i) {
    tip = f.add({tip}, static_cast<float>(i), static_cast<std::uint64_t>(i) + 1);
  }
  const auto ratings = f.ratings();
  EXPECT_DOUBLE_EQ(ratings[tip], 6.0);
}

}  // namespace
}  // namespace tanglefl::tangle
