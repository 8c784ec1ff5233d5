// The shared cone cache must be a pure memoization layer: every quantity a
// ViewCacheEntry serves (cones, tips, approver lists) must equal what the
// TangleView computes directly over the entry's window [root(), size()),
// on prefix views and on masked (gossip replica) views alike, pruned or
// not, and the parallel fill must be bit-identical to the serial one.
// The ViewCache keying tests pin the identity rules: prefix count for
// prefix views, membership for masked views, and the "mask covers the
// whole prefix" normalization that lets converged replicas share entries.
#include "tangle/view_cache.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tangle/milestones.hpp"
#include "tangle/model_store.hpp"
#include "tangle/tip_selection.hpp"

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

  /// Grows a random DAG: each transaction approves 1-2 uniformly random
  /// earlier transactions. Rounds continue from the current last round so
  /// repeated calls keep rounds non-decreasing.
  void grow(std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    const std::uint64_t base = tangle.transaction(tangle.size() - 1).round;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t n = tangle.size();
      std::vector<TxIndex> parents = {
          static_cast<TxIndex>(rng.uniform_index(n))};
      if (rng.uniform() < 0.7) {
        parents.push_back(static_cast<TxIndex>(rng.uniform_index(n)));
      }
      add(std::move(parents), static_cast<float>(i), base + i + 1);
    }
  }

  /// Random ancestor-closed membership containing `seeds` random
  /// transactions plus their full past cones.
  std::vector<bool> random_membership(std::size_t seeds, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<bool> members(tangle.size(), false);
    members[0] = true;
    std::vector<TxIndex> stack;
    for (std::size_t s = 0; s < seeds; ++s) {
      stack.push_back(static_cast<TxIndex>(rng.uniform_index(tangle.size())));
    }
    while (!stack.empty()) {
      const TxIndex i = stack.back();
      stack.pop_back();
      if (members[i]) continue;
      members[i] = true;
      if (i == 0) continue;
      for (const TxIndex p : tangle.parent_indices(i)) stack.push_back(p);
    }
    return members;
  }
};

/// A ledger grown the way the engines grow one with milestone pruning on:
/// each round's transactions approve two tips walked over the round view's
/// cache entry, and every other round advances the prune floor over the
/// full-ledger entry.
struct PrunedLedger : Fixture {
  ViewCache cache{4};
  // Follows the cache's incremental cone state: advanced to each size the
  // cache is asked for, under the floor the cache saw then.
  IncrementalConeState mirror;
  std::vector<std::shared_ptr<const ViewCacheEntry>> served;
  std::size_t prunes = 0;

  std::shared_ptr<const ViewCacheEntry> get(const TangleView& view) {
    std::shared_ptr<const ViewCacheEntry> entry = cache.get(view);
    mirror.advance_to(tangle, view.size());
    served.push_back(entry);
    return entry;
  }

  void grow_pruned(std::size_t rounds, std::size_t lambda) {
    MilestoneConfig config;
    config.enabled = true;
    config.interval = 2;
    config.keep_recent = 24;
    MilestoneTracker tracker(config);
    const Rng master(19);
    const std::uint64_t first = tangle.transaction(tangle.size() - 1).round + 1;
    for (std::uint64_t round = first; round < first + rounds; ++round) {
      const auto cones =
          get(tangle.view_prefix(tangle.visible_count_for_round(round)));
      Rng rng = master.split(round);
      std::vector<std::vector<TxIndex>> parents;
      for (std::size_t p = 0; p < lambda; ++p) {
        parents.push_back(select_tips(*cones, 2, rng, {}));
      }
      for (std::size_t p = 0; p < lambda; ++p) {
        add(parents[p], static_cast<float>(tangle.size()), round);
      }
      if (tracker.tick() &&
          tracker.advance(tangle, store, *get(tangle.view()))) {
        ++prunes;
      }
    }
  }

  /// Ancestor closure of every other tip of the full ledger: a gossip
  /// replica's view that keeps the floor below its tips.
  std::vector<bool> every_other_tip_membership() const {
    const std::vector<TxIndex> tips = tangle.view().tips();
    std::vector<bool> members(tangle.size(), false);
    std::vector<TxIndex> stack;
    for (std::size_t k = 0; k < tips.size(); k += 2) stack.push_back(tips[k]);
    while (!stack.empty()) {
      const TxIndex i = stack.back();
      stack.pop_back();
      if (members[i]) continue;
      members[i] = true;
      if (i == 0) continue;
      for (const TxIndex p : tangle.parent_indices(i)) stack.push_back(p);
    }
    return members;
  }
};

/// Every quantity `entry` serves equals the TangleView reference over the
/// entry's window [root(), view_size()); root() is the prune floor (0 on an
/// unpruned ledger, where the window is the whole view).
void expect_entry_matches_view(const TangleView& view,
                               const ViewCacheEntry& entry) {
  ASSERT_EQ(entry.view_size(), view.size());
  const TxIndex root = entry.root();
  ASSERT_EQ(root, view.tangle().prune_floor());
  ASSERT_LT(root, view.size());
  const std::vector<std::uint32_t> past = view.past_cone_sizes();
  const std::vector<std::uint32_t> future = view.future_cone_sizes();
  ASSERT_EQ(entry.past_cone_sizes().size(), view.size() - root);
  ASSERT_EQ(entry.future_cone_sizes().size(), view.size() - root);
  for (TxIndex i = root; i < view.size(); ++i) {
    EXPECT_EQ(entry.past_cone_sizes()[i - root], past[i])
        << "past cone of " << i;
    EXPECT_EQ(entry.future_cone_sizes()[i - root], future[i])
        << "future cone of " << i;
  }

  std::vector<TxIndex> tips = view.tips();
  std::erase_if(tips, [&](TxIndex t) { return t < root; });
  ASSERT_EQ(entry.tips().size(), tips.size());
  for (std::size_t i = 0; i < tips.size(); ++i) {
    EXPECT_EQ(entry.tips()[i], tips[i]);
  }

  for (TxIndex i = root; i < view.size(); ++i) {
    if (!view.contains(i)) continue;
    const std::vector<TxIndex> direct = view.approvers(i);
    const std::span<const TxIndex> cached = entry.approvers(i);
    ASSERT_EQ(cached.size(), direct.size()) << "approvers of " << i;
    for (std::size_t k = 0; k < direct.size(); ++k) {
      EXPECT_EQ(cached[k], direct[k]) << "approver " << k << " of " << i;
    }
  }
}

TEST(ViewCacheEntry, MatchesDirectQueriesOnRandomPrefixViews) {
  Fixture f;
  f.grow(120, /*seed=*/7);
  for (const std::size_t count : {1UL, 2UL, 17UL, 64UL, 121UL}) {
    const TangleView view = f.tangle.view_prefix(count);
    const auto entry = ViewCacheEntry::build(view);
    expect_entry_matches_view(view, *entry);
  }
}

TEST(ViewCacheEntry, MatchesDirectQueriesOnMaskedViews) {
  Fixture f;
  f.grow(100, /*seed=*/11);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const TangleView view(f.tangle, f.random_membership(10, seed));
    const auto entry = ViewCacheEntry::build(view);
    expect_entry_matches_view(view, *entry);
  }
}

TEST(ViewCacheEntry, GenesisOnlyView) {
  Fixture f;
  const auto entry = ViewCacheEntry::build(f.tangle.view());
  EXPECT_EQ(entry->view_size(), 1u);
  EXPECT_EQ(entry->past_cone_sizes()[0], 0u);
  EXPECT_EQ(entry->future_cone_sizes()[0], 0u);
  ASSERT_EQ(entry->tips().size(), 1u);
  EXPECT_EQ(entry->tips()[0], 0u);
  EXPECT_TRUE(entry->approvers(0).empty());
}

TEST(ViewCacheEntry, ParallelFillMatchesSerial) {
  // Above the parallel threshold the word-sliced fill must produce exactly
  // the serial result (the slices reduce via integer sums).
  Fixture f;
  f.grow(2100, /*seed=*/13);
  const TangleView view = f.tangle.view();
  ThreadPool pool(4);
  const auto serial = ViewCacheEntry::build(view, nullptr);
  const auto parallel = ViewCacheEntry::build(view, &pool);
  ASSERT_EQ(serial->view_size(), parallel->view_size());
  for (TxIndex i = 0; i < serial->view_size(); ++i) {
    ASSERT_EQ(serial->past_cone_sizes()[i], parallel->past_cone_sizes()[i]);
    ASSERT_EQ(serial->future_cone_sizes()[i],
              parallel->future_cone_sizes()[i]);
  }
  expect_entry_matches_view(view, *parallel);
}

TEST(ViewCache, HitsOnRepeatedPrefixViews) {
  Fixture f;
  f.grow(30, /*seed=*/29);
  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("tangle.view_cache.hit");
  obs::Counter& misses =
      obs::MetricsRegistry::global().counter("tangle.view_cache.miss");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();

  ViewCache cache(4);
  const auto first = cache.get(f.tangle.view_prefix(20));
  const auto second = cache.get(f.tangle.view_prefix(20));
  EXPECT_EQ(first.get(), second.get());  // same shared entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(hits.value() - hits_before, 1u);
  EXPECT_EQ(misses.value() - misses_before, 1u);

  (void)cache.get(f.tangle.view_prefix(25));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(misses.value() - misses_before, 2u);
}

TEST(ViewCache, FullMaskNormalizesToPrefixIdentity) {
  // A replica that converged to the whole prefix must share the prefix
  // view's entry.
  Fixture f;
  f.grow(24, /*seed=*/31);
  ViewCache cache(4);
  const auto by_prefix = cache.get(f.tangle.view());
  const auto by_mask =
      cache.get(TangleView(f.tangle, std::vector<bool>(f.tangle.size(), true)));
  EXPECT_EQ(by_prefix.get(), by_mask.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ViewCache, DistinguishesMaskedMemberships) {
  Fixture f;
  f.grow(40, /*seed=*/37);
  ViewCache cache(8);
  const auto membership_a = f.random_membership(6, 1);
  const auto membership_b = f.random_membership(6, 2);
  ASSERT_NE(membership_a, membership_b);
  const auto a = cache.get(TangleView(f.tangle, membership_a));
  const auto b = cache.get(TangleView(f.tangle, membership_b));
  EXPECT_NE(a.get(), b.get());
  const auto a_again = cache.get(TangleView(f.tangle, membership_a));
  EXPECT_EQ(a.get(), a_again.get());
  expect_entry_matches_view(TangleView(f.tangle, membership_a), *a);
  expect_entry_matches_view(TangleView(f.tangle, membership_b), *b);
}

TEST(ViewCache, EvictsLeastRecentlyUsed) {
  Fixture f;
  f.grow(30, /*seed=*/41);
  obs::Counter& evictions =
      obs::MetricsRegistry::global().counter("tangle.view_cache.evictions");
  const std::uint64_t before = evictions.value();

  ViewCache cache(2);
  const auto a = cache.get(f.tangle.view_prefix(10));
  (void)cache.get(f.tangle.view_prefix(20));
  (void)cache.get(f.tangle.view_prefix(10));  // refresh a
  (void)cache.get(f.tangle.view_prefix(30));  // evicts the prefix-20 slot
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(evictions.value() - before, 1u);
  // Prefix 10 survived the eviction; prefix 20 did not.
  EXPECT_EQ(cache.get(f.tangle.view_prefix(10)).get(), a.get());
  const auto evicted = cache.get(f.tangle.view_prefix(20));  // rebuilt
  expect_entry_matches_view(f.tangle.view_prefix(20), *evicted);
}

TEST(ViewCache, OutstandingEntriesSurviveEvictionAndClear) {
  // Regression for the deferred-destruction restructure: eviction, clear()
  // and tangle rebinding only drop the cache's reference. An entry handed
  // out earlier must stay fully usable through its shared_ptr.
  Fixture f;
  f.grow(40, /*seed=*/59);
  ViewCache cache(2);
  const auto a = cache.get(f.tangle.view_prefix(10));
  const auto b = cache.get(f.tangle.view_prefix(20));
  const auto c = cache.get(f.tangle.view_prefix(30));  // evicts the LRU (a)
  EXPECT_EQ(cache.size(), 2u);
  expect_entry_matches_view(f.tangle.view_prefix(10), *a);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  expect_entry_matches_view(f.tangle.view_prefix(20), *b);
  expect_entry_matches_view(f.tangle.view_prefix(30), *c);
}

TEST(ViewCache, RebindingTangleKeepsOutstandingEntriesValid) {
  Fixture f;
  Fixture g;
  f.grow(12, /*seed=*/61);
  g.grow(12, /*seed=*/62);
  ViewCache cache(4);
  const auto from_f = cache.get(f.tangle.view());
  (void)cache.get(g.tangle.view());  // rebinding drops f's entries
  EXPECT_EQ(cache.size(), 1u);
  expect_entry_matches_view(f.tangle.view(), *from_f);
}

TEST(ViewCache, GrowingLedgerChangesKeyNotEntry) {
  // Append-only invalidation: adding transactions must never mutate a
  // cached entry; the grown view simply has a different key.
  Fixture f;
  f.grow(20, /*seed=*/43);
  ViewCache cache(4);
  const auto before = cache.get(f.tangle.view());
  const std::size_t size_before = before->view_size();
  f.grow(10, /*seed=*/44);
  const auto after = cache.get(f.tangle.view());
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(before->view_size(), size_before);  // old entry untouched
  expect_entry_matches_view(f.tangle.view_prefix(size_before), *before);
  expect_entry_matches_view(f.tangle.view(), *after);
}

TEST(ViewCache, ResetsWhenBoundTangleChanges) {
  Fixture f;
  Fixture g;
  f.grow(10, /*seed=*/47);
  g.grow(10, /*seed=*/48);
  ViewCache cache(4);
  (void)cache.get(f.tangle.view());
  EXPECT_EQ(cache.size(), 1u);
  const auto entry = cache.get(g.tangle.view());
  EXPECT_EQ(cache.size(), 1u);  // f's entries were dropped
  expect_entry_matches_view(g.tangle.view(), *entry);
}

TEST(ViewCache, BuildCountsAsConeRecomputes) {
  // Masked views always take the full build; its two cone passes are the
  // only thing tangle.cone_recompute.count counts (the TangleView
  // reference queries below do not).
  Fixture f;
  f.grow(10, /*seed=*/53);
  obs::Counter& recomputes =
      obs::MetricsRegistry::global().counter("tangle.cone_recompute.count");
  const std::uint64_t before = recomputes.value();
  const TangleView masked(f.tangle, f.random_membership(3, /*seed=*/5));
  ASSERT_LT(masked.member_count(), masked.size());
  ViewCache cache(4);
  (void)cache.get(masked);  // miss: one past + one future pass
  EXPECT_EQ(recomputes.value() - before, 2u);
  (void)cache.get(masked);  // hit: no recompute
  (void)masked.past_cone_sizes();
  (void)masked.future_cone_sizes();
  EXPECT_EQ(recomputes.value() - before, 2u);
}

TEST(ViewCacheEntry, ApproversOutOfRangeThrowsUnderDebugChecks) {
  // Regression: approvers(index) used to read offsets_[index + 1]
  // unchecked, so an out-of-view index silently returned garbage spans.
  Fixture f;
  f.grow(5, /*seed=*/2);
  const auto entry = ViewCacheEntry::build(f.tangle.view());
#if defined(TANGLEFL_DEBUG_CHECKS)
  EXPECT_THROW((void)entry->approvers(entry->view_size()), CheckFailure);
  EXPECT_THROW((void)entry->approvers(entry->view_size() + 7), CheckFailure);
#endif
  (void)entry->approvers(entry->view_size() - 1);  // last valid row is fine
}

TEST(ViewCacheEntry, PrunedWindowsMatchDirectQueriesAboveRoot) {
  PrunedLedger f;
  f.grow_pruned(/*rounds=*/40, /*lambda=*/4);
  ASSERT_GE(f.prunes, 3u);
  const TxIndex floor = f.tangle.prune_floor();
  ASSERT_GT(floor, 0u);

  // Prefix views (the whole ledger and a round view) and a masked gossip
  // view, each through the BitMatrix build.
  const std::uint64_t last = f.tangle.transaction(f.tangle.size() - 1).round;
  const TangleView masked(f.tangle, f.every_other_tip_membership());
  ASSERT_LT(masked.member_count(), masked.size());
  for (const TangleView& view :
       {f.tangle.view(),
        f.tangle.view_prefix(f.tangle.visible_count_for_round(last)),
        masked}) {
    const auto built = ViewCacheEntry::build(view);
    EXPECT_EQ(built->root(), floor);
    expect_entry_matches_view(view, *built);
  }

  // The cache's delta entry serves the same window. It was built at the
  // last prune tick, before that prune, so its root may lie below the
  // floor. Its ratings count the frozen region wholesale
  // (tangle/incremental_cones.hpp), so they are checked against the cone
  // state the cache maintains.
  const TangleView view = f.tangle.view();
  const auto delta = f.get(view);
  const auto built = ViewCacheEntry::build(view);
  const TxIndex root = delta->root();
  ASSERT_GT(root, 0u);
  ASSERT_LE(root, floor);
  ASSERT_EQ(delta->past_cone_sizes().size(), view.size() - root);
  for (TxIndex i = root; i < view.size(); ++i) {
    EXPECT_EQ(delta->past_cone_sizes()[i - root],
              f.mirror.past_cone_sizes()[i])
        << "past cone of " << i;
  }
  for (TxIndex i = floor; i < view.size(); ++i) {
    EXPECT_EQ(delta->future_cone_sizes()[i - root],
              built->future_cone_sizes()[i - floor])
        << "future cone of " << i;
    EXPECT_TRUE(std::ranges::equal(delta->approvers(i), built->approvers(i)))
        << "approvers of " << i;
  }
  EXPECT_TRUE(std::ranges::equal(delta->tips(), built->tips()));
}

TEST(ViewCacheEntry, PrunedParallelFillMatchesSerial) {
  PrunedLedger f;
  f.grow_pruned(/*rounds=*/560, /*lambda=*/4);
  ASSERT_GE(f.prunes, 3u);
  const TangleView masked(f.tangle, f.every_other_tip_membership());
  ASSERT_GE(masked.size(), 2048u);  // above the parallel threshold
  ThreadPool pool(4);
  const auto serial = ViewCacheEntry::build(masked, nullptr);
  const auto parallel = ViewCacheEntry::build(masked, &pool);
  EXPECT_TRUE(std::ranges::equal(serial->past_cone_sizes(),
                                 parallel->past_cone_sizes()));
  EXPECT_TRUE(std::ranges::equal(serial->future_cone_sizes(),
                                 parallel->future_cone_sizes()));
  expect_entry_matches_view(masked, *parallel);
}

TEST(ViewCacheEntry, TipsNeverListIndicesBelowRoot) {
  PrunedLedger f;
  f.grow_pruned(/*rounds=*/40, /*lambda=*/4);
  ASSERT_GE(f.prunes, 3u);
  for (const auto& entry : f.served) {
    for (const TxIndex tip : entry->tips()) EXPECT_GE(tip, entry->root());
  }

  // A floor that is no milestone (an async engine clamps the frontier to
  // its slowest horizon) leaves a prefix view's tips below it; the entry
  // lists only the window's.
  Fixture g;
  g.grow(60, /*seed=*/61);
  const TangleView view = g.tangle.view_prefix(50);
  g.tangle.set_prune_floor(40);
  const std::vector<TxIndex> all_tips = view.tips();
  ASSERT_TRUE(std::ranges::any_of(all_tips, [](TxIndex t) { return t < 40; }));
  const auto entry = ViewCacheEntry::build(view);
  ASSERT_FALSE(entry->tips().empty());
  for (const TxIndex tip : entry->tips()) EXPECT_GE(tip, 40u);
  expect_entry_matches_view(view, *entry);
}

TEST(ViewCacheEntry, ApproversBelowRootThrowsUnderDebugChecks) {
  PrunedLedger f;
  f.grow_pruned(/*rounds=*/40, /*lambda=*/4);
  ASSERT_GE(f.prunes, 3u);
  const auto entry = ViewCacheEntry::build(f.tangle.view());
  ASSERT_GT(entry->root(), 0u);
#if defined(TANGLEFL_DEBUG_CHECKS)
  EXPECT_THROW((void)entry->approvers(entry->root() - 1), CheckFailure);
  EXPECT_THROW((void)entry->approvers(0), CheckFailure);
#endif
  (void)entry->approvers(entry->root());  // the first window row is fine
}

TEST(ViewCache, IncrementalAndFullBuildsServeIdenticalEntries) {
  Fixture f;
  f.grow(80, /*seed=*/31);
  ViewCache incremental(4);
  // Grow between gets so the incremental path exercises real deltas.
  for (const std::size_t extra : {0UL, 15UL, 40UL}) {
    f.grow(extra, /*seed=*/31 + extra);
    const TangleView view = f.tangle.view();
    const auto a = incremental.get(view);
    const auto b = ViewCacheEntry::build(view);
    expect_entry_matches_view(view, *a);
    expect_entry_matches_view(view, *b);
  }
}

TEST(ViewCache, IncrementalMissAvoidsConeRecomputes) {
  Fixture f;
  f.grow(10, /*seed=*/53);
  obs::Counter& recomputes =
      obs::MetricsRegistry::global().counter("tangle.cone_recompute.count");
  obs::Counter& incremental_builds = obs::MetricsRegistry::global().counter(
      "tangle.cones.incremental.builds");
  const std::uint64_t before = recomputes.value();
  const std::uint64_t builds_before = incremental_builds.value();
  ViewCache cache(4);  // incremental by default
  (void)cache.get(f.tangle.view());
  EXPECT_EQ(recomputes.value() - before, 0u);
  EXPECT_EQ(incremental_builds.value() - builds_before, 1u);
}

}  // namespace
}  // namespace tanglefl::tangle
