#include "tangle/tip_selection.hpp"

#include <gtest/gtest.h>

#include <map>

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

}  // namespace
}  // namespace tanglefl::tangle
