#include "core/reference.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <utility>
#include <vector>

#include "tangle/milestones.hpp"
#include "tangle/model_store.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::core {
namespace {

using tangle::ModelStore;
using tangle::Tangle;
using tangle::TxIndex;

struct Fixture {
  ModelStore store;
  Tangle tangle;

  Fixture() : tangle(make_genesis(store)) {}

  static Tangle make_genesis(ModelStore& store) {
    const auto added = store.add({0.0f, 0.0f});
    return Tangle(added.id, added.hash);
  }

  TxIndex add(std::vector<TxIndex> parents, nn::ParamVector params,
              std::uint64_t round) {
    const auto added = store.add(std::move(params));
    return tangle.add_transaction(parents, added.id, added.hash, round);
  }

  /// Algorithm 1 over `view`, scored against a freshly built cone entry.
  ReferenceResult reference(const tangle::TangleView& view, Rng& rng,
                            const ReferenceConfig& config) const {
    return choose_reference(view, store, *tangle::ViewCacheEntry::build(view),
                            rng, config);
  }
};

TEST(Reference, GenesisOnlyReturnsGenesisPayload) {
  Fixture f;
  Rng rng(1);
  const ReferenceResult result = f.reference(f.tangle.view(), rng, {});
  ASSERT_EQ(result.transactions.size(), 1u);
  EXPECT_EQ(result.transactions[0], 0u);
  EXPECT_EQ(result.params, (nn::ParamVector{0.0f, 0.0f}));
}

TEST(Reference, PicksDeepConsensusTransaction) {
  Fixture f;
  // A linear chain: the newest chain element has the highest
  // confidence * rating (confidence 1, largest past cone).
  TxIndex tip = 0;
  for (int i = 1; i <= 5; ++i) {
    tip = f.add({tip}, {static_cast<float>(i), 0.0f},
                static_cast<std::uint64_t>(i));
  }
  Rng rng(2);
  const ReferenceResult result = f.reference(f.tangle.view(), rng, {});
  EXPECT_EQ(result.transactions[0], tip);
  EXPECT_EQ(result.params[0], 5.0f);
}

TEST(Reference, AbandonedBranchLosesToConsensusBranch) {
  Fixture f;
  // A short abandoned fork vs a long approved chain.
  const TxIndex orphan = f.add({0}, {99.0f, 0.0f}, 1);
  TxIndex tip = f.add({0}, {1.0f, 0.0f}, 1);
  for (int i = 2; i <= 6; ++i) {
    tip = f.add({tip}, {static_cast<float>(i), 0.0f},
                static_cast<std::uint64_t>(i));
  }
  Rng rng(3);
  ReferenceConfig config;
  config.confidence.sample_rounds = 64;
  config.confidence.tip_selection.alpha = 1.0;  // favor the heavy branch
  const ReferenceResult result = f.reference(f.tangle.view(), rng, config);
  EXPECT_NE(result.transactions[0], orphan);
  EXPECT_EQ(result.params[0], 6.0f);
}

TEST(Reference, TopNAveragesPayloads) {
  Fixture f;
  TxIndex tip = 0;
  for (int i = 1; i <= 4; ++i) {
    tip = f.add({tip}, {static_cast<float>(i), 0.0f},
                static_cast<std::uint64_t>(i));
  }
  Rng rng(4);
  ReferenceConfig config;
  config.num_reference_models = 2;
  const ReferenceResult result = f.reference(f.tangle.view(), rng, config);
  ASSERT_EQ(result.transactions.size(), 2u);
  // Top two by confidence * rating are the two newest chain elements.
  EXPECT_EQ(result.params[0], (4.0f + 3.0f) / 2.0f);
}

TEST(Reference, TopNClampedToViewSize) {
  Fixture f;
  f.add({0}, {1.0f, 0.0f}, 1);
  Rng rng(5);
  ReferenceConfig config;
  config.num_reference_models = 50;
  const ReferenceResult result = f.reference(f.tangle.view(), rng, config);
  EXPECT_EQ(result.transactions.size(), 2u);  // genesis + one transaction
}

TEST(Reference, DeterministicInRng) {
  Fixture f;
  for (int i = 0; i < 6; ++i) {
    f.add({0}, {static_cast<float>(i), 0.0f}, 1);
  }
  Rng rng_a(6), rng_b(6);
  const ReferenceResult a = f.reference(f.tangle.view(), rng_a, {});
  const ReferenceResult b = f.reference(f.tangle.view(), rng_b, {});
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.params, b.params);
}

TEST(Reference, TopPriorityIndicesMatchesPriorityQueuePopOrder) {
  // Regression for the priority_queue -> nth_element rewrite: the top-k
  // selection must reproduce the old pop sequence bit-exactly, including
  // the ties-go-to-the-newest-index rule. Quantized priorities force many
  // exact ties.
  Rng rng(99);
  const std::size_t counts[] = {0, 1, 7, 64, 257};
  for (const std::size_t count : counts) {
    std::vector<double> priorities(count);
    for (double& priority : priorities) {
      priority = static_cast<double>(rng.uniform_index(8)) / 8.0;
    }
    const std::size_t takes[] = {0, 1, 3, count / 2, count, count + 5};
    for (const std::size_t take : takes) {
      // The old implementation, verbatim: push everything, pop `take`.
      std::priority_queue<std::pair<double, TxIndex>> queue;
      for (TxIndex i = 0; i < priorities.size(); ++i) {
        queue.emplace(priorities[i], i);
      }
      std::vector<TxIndex> expected;
      while (!queue.empty() && expected.size() < take) {
        expected.push_back(queue.top().second);
        queue.pop();
      }
      EXPECT_EQ(top_priority_indices(priorities, take), expected)
          << "count=" << count << " take=" << take;
    }
  }
}

TEST(Reference, WindowTopKMatchesFullLedgerTopK) {
  // On a pruned ledger, ranking only the live window must pick what a
  // full-ledger top-k over confidence * rating (frozen priorities zeroed,
  // `take` clamped to the window) picks.
  Fixture f;
  Rng grow(21);
  for (std::uint64_t round = 1; round <= 150; ++round) {
    const std::size_t n = f.tangle.size();
    const std::size_t lo = n > 6 ? n - 6 : 0;
    const TxIndex a = static_cast<TxIndex>(lo + grow.uniform_index(n - lo));
    const TxIndex b = static_cast<TxIndex>(lo + grow.uniform_index(n - lo));
    f.add({a, b}, {static_cast<float>(round), 0.0f}, round);
  }
  const tangle::TangleView view = f.tangle.view();
  {
    const auto full = tangle::ViewCacheEntry::build(view);
    f.tangle.set_prune_floor(tangle::find_milestone(*full, full->tips(), 0,
                                                    /*keep_recent=*/30));
  }
  const TxIndex floor = f.tangle.prune_floor();
  ASSERT_GT(floor, 0u);
  const auto cones = tangle::ViewCacheEntry::build(view);
  for (const std::size_t k : {1u, 3u, 10u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      ReferenceConfig config;
      config.num_reference_models = k;
      config.confidence.sample_rounds = 35;
      Rng rng_window(seed), rng_full(seed);
      const ReferenceResult result =
          choose_reference(view, f.store, *cones, rng_window, config);
      const tangle::ConfidenceWindow confidence =
          tangle::compute_confidences(view, *cones, rng_full,
                                      config.confidence);
      const auto ratings = cones->past_cone_sizes();  // from the root
      ASSERT_EQ(cones->root(), floor);
      std::vector<double> priorities(view.size(), 0.0);
      for (TxIndex i = floor; i < view.size(); ++i) {
        priorities[i] = confidence[i] * ratings[i - floor];
      }
      const std::size_t take =
          std::max<std::size_t>(1, std::min(k, view.size() - floor));
      EXPECT_EQ(result.transactions, top_priority_indices(priorities, take))
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(Reference, RespectsViewPrefix) {
  Fixture f;
  const TxIndex a = f.add({0}, {1.0f, 0.0f}, 1);
  f.add({a}, {2.0f, 0.0f}, 2);
  Rng rng(7);
  const ReferenceResult result = f.reference(f.tangle.view_prefix(2), rng, {});
  EXPECT_LE(result.transactions[0], 1u);
  EXPECT_NE(result.params[0], 2.0f);
}

}  // namespace
}  // namespace tanglefl::core
