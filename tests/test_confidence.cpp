#include "tangle/confidence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "tangle/milestones.hpp"
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
  ConfidenceWindow confidences(Rng& rng, const ConfidenceConfig& config) const {
    const TangleView view = tangle.view();
    return compute_confidences(view, *ViewCacheEntry::build(view), rng,
                               config);
  }

  /// Ratings of Algorithm 1: the entry's past cone sizes.
  std::vector<std::uint32_t> ratings() const {
    const auto cones = ViewCacheEntry::build(tangle.view());
    const auto past = cones->past_cone_sizes();
    return {past.begin(), past.end()};
  }

  /// Grows `rounds` rounds of four transactions, each approving one or two
  /// uniformly drawn tips of the previous round's ledger, so the DAG forks
  /// and joins and keeps several tips.
  void grow_random(std::size_t rounds, std::uint64_t seed) {
    Rng rng(seed);
    for (std::uint64_t round = 1; round <= rounds; ++round) {
      const std::vector<TxIndex> tips = tangle.view().tips();
      for (int k = 0; k < 4; ++k) {
        std::vector<TxIndex> parents{tips[rng.uniform_index(tips.size())]};
        if (rng.bernoulli(0.7)) {
          parents.push_back(tips[rng.uniform_index(tips.size())]);
        }
        add(parents, static_cast<float>(tangle.size()), round);
      }
    }
  }

  /// Advances the prune floor to the newest milestone of the full ledger.
  TxIndex prune(std::size_t keep_recent) {
    const auto cones = ViewCacheEntry::build(tangle.view());
    const TxIndex floor = find_milestone(*cones, cones->tips(),
                                         tangle.prune_floor(), keep_recent);
    tangle.set_prune_floor(floor);
    return floor;
  }
};

/// The per-sample DFS that compute_confidences replaced, kept as its
/// oracle: one walk per sample, then a DFS over the sampled tip's past
/// cone that never descends below the prune floor; frozen history reads
/// 1.0.
std::vector<double> dfs_confidences(const TangleView& view,
                                    const ViewCacheEntry& cones, Rng& rng,
                                    const ConfidenceConfig& config) {
  std::vector<double> confidence(view.size(), 0.0);
  std::vector<std::uint32_t> hits(view.size(), 0);
  std::vector<TxIndex> stack;
  std::vector<bool> seen(view.size());
  const TxIndex floor = view.tangle().prune_floor();
  for (std::size_t round = 0; round < config.sample_rounds; ++round) {
    const TxIndex tip = random_walk_tip(cones, rng, config.tip_selection);
    std::fill(seen.begin(), seen.end(), false);
    stack.assign(1, tip);
    seen[tip] = true;
    while (!stack.empty()) {
      const TxIndex current = stack.back();
      stack.pop_back();
      ++hits[current];
      if (current == view.tangle().genesis()) continue;
      for (const TxIndex p : view.tangle().parent_indices(current)) {
        if (p >= floor && !seen[p]) {
          seen[p] = true;
          stack.push_back(p);
        }
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(config.sample_rounds);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    confidence[i] = i < floor ? 1.0 : static_cast<double>(hits[i]) * inv;
  }
  return confidence;
}

/// compute_confidences over `cones` must reproduce the DFS oracle bit for
/// bit, hold exactly the live window, and leave the RNG where it left it.
void expect_matches_oracle(const TangleView& view, const ViewCacheEntry& cones,
                           const std::string& label) {
  const TxIndex floor = view.tangle().prune_floor();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::size_t samples : {1u, 8u, 35u, 70u}) {
      SCOPED_TRACE(label + " seed=" + std::to_string(seed) +
                   " samples=" + std::to_string(samples));
      ConfidenceConfig config;
      config.sample_rounds = samples;
      config.tip_selection.alpha = 0.1;
      Rng rng_window(seed), rng_oracle(seed);
      const ConfidenceWindow window =
          compute_confidences(view, cones, rng_window, config);
      const std::vector<double> oracle =
          dfs_confidences(view, cones, rng_oracle, config);
      EXPECT_EQ(window.floor, floor);
      ASSERT_EQ(window.values.size(), view.size() - floor);
      ASSERT_EQ(window.size(), oracle.size());
      for (TxIndex i = 0; i < oracle.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(window[i]),
                  std::bit_cast<std::uint64_t>(oracle[i]))
            << "tx " << i;
      }
      EXPECT_EQ(rng_window(), rng_oracle());
    }
  }
}

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
  for (const double c : confidence.values) {
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
  for (const double c : confidence.values) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(Confidence, DeterministicInRng) {
  Fixture f;
  for (int i = 0; i < 5; ++i) f.add({0}, static_cast<float>(i), 1);
  Rng rng_a(6), rng_b(6);
  EXPECT_EQ(f.confidences(rng_a, {}).values, f.confidences(rng_b, {}).values);
}

TEST(Ratings, MatchPastConeSizes) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  const TxIndex c = f.add({a, b}, 3.0f, 2);
  const auto ratings = f.ratings();
  EXPECT_EQ(ratings[0], 0u);
  EXPECT_EQ(ratings[a], 1u);
  EXPECT_EQ(ratings[c], 3u);
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
  EXPECT_EQ(ratings[tip], 6u);
}

TEST(ConfidenceWindow, MatchesDfsOracleOnUnprunedView) {
  Fixture f;
  f.grow_random(30, 11);
  const TangleView view = f.tangle.view();
  expect_matches_oracle(view, *ViewCacheEntry::build(view), "unpruned");
}

TEST(ConfidenceWindow, MatchesDfsOracleAbovePruneFloor) {
  Fixture f;
  f.grow_random(40, 12);
  ASSERT_GT(f.prune(/*keep_recent=*/40), 0u);
  const TangleView view = f.tangle.view();
  const auto cones = ViewCacheEntry::build(view);
  ASSERT_EQ(cones->root(), f.tangle.prune_floor());
  expect_matches_oracle(view, *cones, "pruned");
}

TEST(ConfidenceWindow, MatchesDfsOracleOverEntryRootedBelowFloor) {
  // A round view served by the entry built before the prune tick: its
  // walks start at the old root, the window at the new floor.
  Fixture f;
  f.grow_random(40, 13);
  const TangleView view = f.tangle.view();
  const auto stale = ViewCacheEntry::build(view);
  ASSERT_GT(f.prune(/*keep_recent=*/40), 0u);
  ASSERT_LT(stale->root(), f.tangle.prune_floor());
  expect_matches_oracle(view, *stale, "stale root");
}

TEST(ConfidenceWindow, MatchesDfsOracleOnPrefixEntryBuiltBeforePrune) {
  // An async wake's prefix view served by the entry built before an
  // eval-time prune whose frontier was clamped to visible - 1, which need
  // not be a milestone: walks from the old root can end at prefix tips
  // below the new floor.
  Fixture f;
  f.grow_random(40, 15);
  const std::size_t visible = f.tangle.size() - 6;
  const TangleView view = f.tangle.view_prefix(visible);
  const auto stale = ViewCacheEntry::build(view);
  f.tangle.set_prune_floor(visible - 1);
  const TxIndex floor = f.tangle.prune_floor();
  const auto tips = stale->tips();
  ASSERT_TRUE(std::any_of(tips.begin(), tips.end(),
                          [&](TxIndex t) { return t < floor; }));
  expect_matches_oracle(view, *stale, "prefix stale");

  // The window is the single prefix tip at the floor, so its confidence
  // is the share of walks ending there; below 1 means some walk ended in
  // frozen history and was dropped.
  Rng rng(15);
  ConfidenceConfig config;
  config.sample_rounds = 70;
  const ConfidenceWindow window =
      compute_confidences(view, *stale, rng, config);
  ASSERT_EQ(window.values.size(), 1u);
  EXPECT_LT(window[floor], 1.0);
}

TEST(ConfidenceWindow, MatchesDfsOracleOnMaskedView) {
  // A gossip replica's view: the past cones of every other tip, which is
  // ancestor-closed and (pruned or not) keeps the floor below its tips.
  for (const bool pruned : {false, true}) {
    Fixture f;
    f.grow_random(40, 14);
    if (pruned) {
      ASSERT_GT(f.prune(/*keep_recent=*/40), 0u);
    }
    const std::vector<TxIndex> tips = f.tangle.view().tips();
    ASSERT_GE(tips.size(), 2u);
    std::vector<bool> membership(f.tangle.size(), false);
    std::vector<TxIndex> stack;
    for (std::size_t t = 0; t < tips.size(); t += 2) stack.push_back(tips[t]);
    while (!stack.empty()) {
      const TxIndex current = stack.back();
      stack.pop_back();
      if (membership[current]) continue;
      membership[current] = true;
      for (const TxIndex p : f.tangle.parent_indices(current)) {
        stack.push_back(p);
      }
    }
    const TangleView view(f.tangle, membership);
    ASSERT_LT(view.member_count(), f.tangle.size());
    expect_matches_oracle(view, *ViewCacheEntry::build(view),
                          pruned ? "masked pruned" : "masked");
  }
}

}  // namespace
}  // namespace tanglefl::tangle
