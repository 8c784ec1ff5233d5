// The shared cone cache must be a pure memoization layer: every quantity a
// ViewCacheEntry serves (cones, tips, approver lists) must equal what the
// TangleView computes directly, on prefix views and on masked (gossip
// replica) views alike, and the parallel fill must be bit-identical to the
// serial one. The ViewCache keying tests pin the identity rules: prefix
// count for prefix views, membership for masked views, and the
// "mask covers the whole prefix" normalization that lets converged
// replicas share entries.
#include "tangle/view_cache.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tangle/model_store.hpp"

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

void expect_entry_matches_view(const TangleView& view,
                               const ViewCacheEntry& entry) {
  ASSERT_EQ(entry.view_size(), view.size());
  const std::vector<std::uint32_t> past = view.past_cone_sizes();
  const std::vector<std::uint32_t> future = view.future_cone_sizes();
  ASSERT_EQ(entry.past_cone_sizes().size(), past.size());
  ASSERT_EQ(entry.future_cone_sizes().size(), future.size());
  for (TxIndex i = 0; i < view.size(); ++i) {
    EXPECT_EQ(entry.past_cone_sizes()[i], past[i]) << "past cone of " << i;
    EXPECT_EQ(entry.future_cone_sizes()[i], future[i])
        << "future cone of " << i;
  }

  const std::vector<TxIndex> tips = view.tips();
  ASSERT_EQ(entry.tips().size(), tips.size());
  for (std::size_t i = 0; i < tips.size(); ++i) {
    EXPECT_EQ(entry.tips()[i], tips[i]);
  }

  for (TxIndex i = 0; i < view.size(); ++i) {
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

TEST(ViewCache, ConeStateSnapshotRestoresAcrossCaches) {
  Fixture f;
  f.grow(60, /*seed=*/37);
  ViewCache original(4);
  (void)original.get(f.tangle.view());
  const ViewCache::ConeStateSnapshot snapshot =
      original.cone_state_snapshot();
  ASSERT_EQ(snapshot.past.size(), f.tangle.size());

  ViewCache resumed(4);
  resumed.restore_cone_state(f.tangle, snapshot);
  // The first get() after a restore must serve the seeded state, not wipe
  // it via the tangle-rebind path.
  f.grow(25, /*seed=*/39);
  const TangleView view = f.tangle.view();
  const auto restored_entry = resumed.get(view);
  const auto fresh_entry = original.get(view);
  ASSERT_EQ(restored_entry->view_size(), fresh_entry->view_size());
  for (TxIndex i = 0; i < view.size(); ++i) {
    EXPECT_EQ(restored_entry->past_cone_sizes()[i],
              fresh_entry->past_cone_sizes()[i]);
    EXPECT_EQ(restored_entry->future_cone_sizes()[i],
              fresh_entry->future_cone_sizes()[i]);
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
