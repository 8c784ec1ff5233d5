#include "tangle/tip_selection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>

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

  /// Cone cache entry for the whole ledger as it stands.
  std::shared_ptr<const ViewCacheEntry> cones() const {
    return ViewCacheEntry::build(tangle.view());
  }
};

TEST(TipSelection, GenesisOnlyReturnsGenesis) {
  Fixture f;
  Rng rng(1);
  const auto tips = select_tips(*f.cones(), 3, rng, {});
  EXPECT_EQ(tips, (std::vector<TxIndex>{0, 0, 0}));
}

TEST(TipSelection, SingleChainReachesTip) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({a}, 2.0f, 2);
  const TxIndex c = f.add({b}, 3.0f, 3);
  Rng rng(1);
  const auto tips = select_tips(*f.cones(), 5, rng, {});
  for (const TxIndex t : tips) EXPECT_EQ(t, c);
}

TEST(TipSelection, ReachesOnlyActualTips) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  const TxIndex c = f.add({a}, 3.0f, 2);
  (void)c;
  Rng rng(2);
  const auto tip_set = f.tangle.view().tips();
  const auto tips = select_tips(*f.cones(), 50, rng, {});
  for (const TxIndex t : tips) {
    EXPECT_TRUE(std::find(tip_set.begin(), tip_set.end(), t) !=
                tip_set.end());
  }
  (void)b;
}

TEST(TipSelection, ZeroAlphaIsRoughlyUniformOnSymmetricFork) {
  Fixture f;
  // Two symmetric tips directly off genesis.
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  Rng rng(3);
  TipSelectionConfig config;
  config.alpha = 0.0;
  std::map<TxIndex, int> counts;
  const auto cones = f.cones();
  for (int i = 0; i < 2000; ++i) {
    const auto tips = select_tips(*cones, 1, rng, config);
    ++counts[tips[0]];
  }
  EXPECT_NEAR(counts[a], 1000, 120);
  EXPECT_NEAR(counts[b], 1000, 120);
}

TEST(TipSelection, HighAlphaFollowsHeavyBranch) {
  Fixture f;
  // Branch A is much heavier (more approvers) than branch B.
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  TxIndex heavy_tip = a;
  for (int i = 0; i < 8; ++i) {
    heavy_tip = f.add({heavy_tip}, 10.0f + static_cast<float>(i), 2 + static_cast<std::uint64_t>(i));
  }
  Rng rng(4);
  TipSelectionConfig config;
  config.alpha = 10.0;  // near-greedy
  int heavy_hits = 0;
  const auto cones = f.cones();
  for (int i = 0; i < 200; ++i) {
    const auto tips = select_tips(*cones, 1, rng, config);
    if (tips[0] == heavy_tip) ++heavy_hits;
  }
  EXPECT_GT(heavy_hits, 195);
  (void)b;
}

TEST(TipSelection, ModerateAlphaStillExplores) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  TxIndex heavy_tip = a;
  for (int i = 0; i < 5; ++i) {
    heavy_tip = f.add({heavy_tip}, 10.0f + static_cast<float>(i), 2 + static_cast<std::uint64_t>(i));
  }
  const TxIndex light = f.add({0}, 2.0f, 8);
  Rng rng(5);
  TipSelectionConfig config;
  config.alpha = 0.1;
  int light_hits = 0;
  const auto cones = f.cones();
  for (int i = 0; i < 1000; ++i) {
    const auto tips = select_tips(*cones, 1, rng, config);
    if (tips[0] == light) ++light_hits;
  }
  EXPECT_GT(light_hits, 50);
  EXPECT_LT(light_hits, 600);
}

TEST(TipSelection, RespectsViewPrefix) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex later = f.add({a}, 2.0f, 2);
  (void)later;
  Rng rng(6);
  const TangleView view = f.tangle.view_prefix(2);
  const auto tips = select_tips(*ViewCacheEntry::build(view), 10, rng, {});
  for (const TxIndex t : tips) EXPECT_EQ(t, a);
}

TEST(TipSelection, DeterministicInRng) {
  Fixture f;
  for (int i = 0; i < 6; ++i) {
    f.add({0}, static_cast<float>(i) + 1.0f, 1);
  }
  Rng rng_a(7), rng_b(7);
  const auto tips_a = select_tips(*f.cones(), 10, rng_a, {});
  const auto tips_b = select_tips(*f.cones(), 10, rng_b, {});
  EXPECT_EQ(tips_a, tips_b);
}

TEST(TipSelection, WalkVisitsIntermediateNode) {
  Fixture f;
  // genesis <- mid <- {t1, t2}: every walk passes through mid.
  const TxIndex mid = f.add({0}, 1.0f, 1);
  const TxIndex t1 = f.add({mid}, 2.0f, 2);
  const TxIndex t2 = f.add({mid}, 3.0f, 2);
  Rng rng(8);
  const auto tips = select_tips(*f.cones(), 20, rng, {});
  for (const TxIndex t : tips) {
    EXPECT_TRUE(t == t1 || t == t2);
  }
}

// ---------------------------------------------------------------- oracle

/// The walk as it stood before the gap table: one std::exp per approver
/// into a weight buffer, drawn with Rng::weighted_choice over the span.
TxIndex reference_walk(const ViewCacheEntry& cones, Rng& rng, double alpha) {
  const std::span<const std::uint32_t> future_cones =
      cones.future_cone_sizes();
  const TxIndex root = cones.root();
  TxIndex current = root;
  std::vector<double> weights;
  for (;;) {
    const std::span<const TxIndex> approvers = cones.approvers(current);
    if (approvers.empty()) return current;
    if (approvers.size() == 1) {
      current = approvers.front();
      continue;
    }
    std::uint32_t max_weight = 0;
    for (const TxIndex a : approvers) {
      max_weight = std::max(max_weight, future_cones[a - root]);
    }
    weights.clear();
    for (const TxIndex a : approvers) {
      weights.push_back(
          std::exp(alpha * (static_cast<double>(future_cones[a - root]) -
                            static_cast<double>(max_weight))));
    }
    current = approvers[rng.weighted_choice(weights)];
  }
}

/// Two generators are in the same state iff their next draws agree (two
/// 64-bit draws make a false match practically impossible).
bool same_state(const Rng& a, const Rng& b) {
  Rng ca = a, cb = b;
  return ca() == cb() && ca() == cb();
}

/// Walks `walks` times with random_walk_tip and with the reference walk
/// from equal generators, cycling through `alphas`; returns the number of
/// walks whose tip or generator state differed.
int count_oracle_mismatches(const ViewCacheEntry& cones,
                            std::span<const double> alphas, int walks,
                            std::uint64_t seed) {
  Rng rng(seed);
  Rng oracle_rng(seed);
  int mismatches = 0;
  for (int i = 0; i < walks; ++i) {
    TipSelectionConfig config;
    config.alpha = alphas[static_cast<std::size_t>(i) % alphas.size()];
    const TxIndex got = random_walk_tip(cones, rng, config);
    const TxIndex want = reference_walk(cones, oracle_rng, config.alpha);
    if (got != want || !same_state(rng, oracle_rng)) ++mismatches;
  }
  return mismatches;
}

/// A stationary tangle: `rounds` rounds of `lambda` transactions, each
/// approving two walk-selected tips of the ledger as it stood when the
/// round began (the round visibility barrier).
Fixture& grow_stationary(Fixture& f, int rounds, int lambda) {
  Rng rng(11);
  TipSelectionConfig config;
  config.alpha = 0.01;
  for (int r = 1; r <= rounds; ++r) {
    const auto cones = f.cones();
    for (int k = 0; k < lambda; ++k) {
      const auto tips = select_tips(*cones, 2, rng, config);
      f.add(tips, static_cast<float>(r * lambda + k),
            static_cast<std::uint64_t>(r));
    }
  }
  return f;
}

TEST(TipSelectionOracle, MatchesExpWalkOnStationaryTangle) {
  Fixture f;
  grow_stationary(f, 80, 8);
  const auto cones = f.cones();
  for (const double alpha : {0.0, 0.01, 0.5, 3.0}) {
    const double alphas[] = {alpha};
    EXPECT_EQ(count_oracle_mismatches(*cones, alphas, 10000, 21), 0)
        << "alpha " << alpha;
  }
}

TEST(TipSelectionOracle, MatchesExpWalkPastTheGapTable) {
  // Genesis has five approvers: the head of a 1,100-transaction chain and
  // four shorter chains, so the sibling gaps at the first step are 1,023,
  // 1,024, 1,025 and 1,099 — the last table entry and three gaps past the
  // table, which take the std::exp fallback.
  Fixture f;
  std::uint64_t round = 1;
  for (const int length : {1100, 77, 76, 75, 1}) {
    TxIndex head = f.add({0}, 1.0f, round);
    for (int i = 1; i < length; ++i) head = f.add({head}, 1.0f, ++round);
  }
  const auto cones = f.cones();
  const auto weights = cones->future_cone_sizes();
  const auto first = cones->approvers(0);
  ASSERT_EQ(first.size(), 5u);
  EXPECT_EQ(weights[first[0]] - weights[first[1]], 1023u);
  EXPECT_EQ(weights[first[0]] - weights[first[4]], 1099u);
  for (const double alpha : {0.0005, 0.001, 0.01}) {
    const double alphas[] = {alpha};
    EXPECT_EQ(count_oracle_mismatches(*cones, alphas, 2000, 22), 0)
        << "alpha " << alpha;
  }
}

TEST(TipSelectionOracle, MatchesExpWalkWhenAlphaSwitches) {
  // One thread, alpha changing from walk to walk: every switch re-keys the
  // table, and switching back must not read entries of the other alpha.
  Fixture f;
  grow_stationary(f, 40, 8);
  const auto cones = f.cones();
  const double alphas[] = {0.01, 0.5, 0.01, 3.0, 0.0, 0.5, -0.0, 0.01};
  EXPECT_EQ(count_oracle_mismatches(*cones, alphas, 4000, 23), 0);
}

TEST(TipSelectionOracle, MatchesExpWalkOnTwoThreadsWithDifferentAlpha) {
  // Each thread owns its table; two threads walking the same entry with
  // different alpha must not see each other's entries.
  Fixture f;
  grow_stationary(f, 40, 8);
  const auto cones = f.cones();
  int mismatches[2] = {-1, -1};
  const double alphas[2] = {0.01, 0.5};
  std::thread workers[2];
  for (int t = 0; t < 2; ++t) {
    workers[t] = std::thread([&, t] {
      mismatches[t] = count_oracle_mismatches(
          *cones, std::span<const double>(&alphas[t], 1), 3000,
          30 + static_cast<std::uint64_t>(t));
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

}  // namespace
}  // namespace tanglefl::tangle
