// The incremental cone state must be a drop-in replacement for the
// BitMatrix reachability pass: with pruning off, every past/future value it
// maintains must equal what TangleView derives from scratch, for any
// append/advance interleaving. Under a prune floor the documented
// "frozen region counted wholesale" semantics apply instead, and the DFS
// must never descend below the floor.
#include "tangle/incremental_cones.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"
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
};

void expect_matches_view(const Fixture& f, const IncrementalConeState& state,
                         std::size_t count) {
  const TangleView view = f.tangle.view_prefix(count);
  const std::vector<std::uint32_t> past = view.past_cone_sizes();
  const std::vector<std::uint32_t> future = view.future_cone_sizes();
  ASSERT_GE(state.processed(), count);
  for (TxIndex i = 0; i < count; ++i) {
    EXPECT_EQ(state.past_cone_sizes()[i], past[i]) << "past cone of " << i;
  }
  // Future cones are only prefix-comparable when the state stops exactly at
  // the view boundary (later appends grow earlier future cones).
  if (state.processed() == count) {
    for (TxIndex i = 0; i < count; ++i) {
      EXPECT_EQ(state.future_cone_sizes()[i], future[i])
          << "future cone of " << i;
    }
  }
}

TEST(IncrementalCones, MatchesBitMatrixOnGrownTangle) {
  Fixture f;
  f.grow(150, /*seed=*/17);
  IncrementalConeState state;
  state.advance_to(f.tangle, f.tangle.size());
  EXPECT_EQ(state.processed(), f.tangle.size());
  expect_matches_view(f, state, f.tangle.size());
}

TEST(IncrementalCones, DeltaAdvancesMatchOneShotAdvance) {
  Fixture f;
  f.grow(120, /*seed=*/23);
  IncrementalConeState delta;
  // Advance in ragged steps, checking the past prefix at each stop.
  for (const std::size_t stop : {1UL, 2UL, 5UL, 31UL, 32UL, 77UL, 121UL}) {
    delta.advance_to(f.tangle, stop);
    EXPECT_EQ(delta.processed(), stop);
    expect_matches_view(f, delta, stop);
  }
  IncrementalConeState one_shot;
  one_shot.advance_to(f.tangle, f.tangle.size());
  ASSERT_EQ(delta.processed(), one_shot.processed());
  for (TxIndex i = 0; i < f.tangle.size(); ++i) {
    EXPECT_EQ(delta.past_cone_sizes()[i], one_shot.past_cone_sizes()[i]);
    EXPECT_EQ(delta.future_cone_sizes()[i], one_shot.future_cone_sizes()[i]);
  }
}

TEST(IncrementalCones, AdvanceBelowProcessedIsANoOp) {
  Fixture f;
  f.grow(20, /*seed=*/3);
  IncrementalConeState state;
  state.advance_to(f.tangle, f.tangle.size());
  const std::vector<std::uint32_t> past(state.past_cone_sizes().begin(),
                                        state.past_cone_sizes().end());
  state.advance_to(f.tangle, 5);
  EXPECT_EQ(state.processed(), f.tangle.size());
  for (TxIndex i = 0; i < past.size(); ++i) {
    EXPECT_EQ(state.past_cone_sizes()[i], past[i]);
  }
}

TEST(IncrementalCones, PrunedAppendCountsFrozenRegionWholesale) {
  // Chain 0 <- 1 <- 2 <- 3: with the floor at 2, appending 4 on parent 3
  // must see past(4) = floor + |{2, 3}| = 4 and must not touch future
  // counts below the floor.
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({a}, 2.0f, 2);
  const TxIndex c = f.add({b}, 3.0f, 3);
  IncrementalConeState state;
  state.advance_to(f.tangle, f.tangle.size());
  const std::uint32_t frozen_future = state.future_cone_sizes()[a];

  f.tangle.set_prune_floor(b);
  const TxIndex d = f.add({c}, 4.0f, 4);
  state.advance_to(f.tangle, f.tangle.size());
  EXPECT_EQ(state.past_cone_sizes()[d], 4u);  // floor (2) + {b, c}
  EXPECT_EQ(state.future_cone_sizes()[a], frozen_future);  // untouched
  EXPECT_EQ(state.future_cone_sizes()[c], 1u);
}

TEST(IncrementalCones, ResetDropsEverything) {
  Fixture f;
  f.grow(10, /*seed=*/5);
  IncrementalConeState state;
  state.advance_to(f.tangle, f.tangle.size());
  state.reset();
  EXPECT_EQ(state.processed(), 0u);
  EXPECT_TRUE(state.past_cone_sizes().empty());
  EXPECT_TRUE(state.future_cone_sizes().empty());
}

TEST(IncrementalCones, MemoryBytesScalesLinearly) {
  Fixture f;
  f.grow(200, /*seed=*/7);
  IncrementalConeState state;
  state.advance_to(f.tangle, f.tangle.size());
  const std::size_t n = f.tangle.size();
  EXPECT_GT(state.memory_bytes(), 0u);
  // O(n) words with small constants — nowhere near the n^2/64 bit matrix.
  EXPECT_LT(state.memory_bytes(), 64u * n * sizeof(std::uint32_t));
}

TEST(IncrementalCones, BuildIncrementalEntryMatchesFullBuild) {
  Fixture f;
  f.grow(90, /*seed=*/29);
  const TangleView view = f.tangle.view();
  IncrementalConeState state;
  const auto incremental = ViewCacheEntry::build_incremental(view, state);
  const auto full = ViewCacheEntry::build(view);
  ASSERT_EQ(incremental->view_size(), full->view_size());
  for (TxIndex i = 0; i < view.size(); ++i) {
    EXPECT_EQ(incremental->past_cone_sizes()[i], full->past_cone_sizes()[i]);
    EXPECT_EQ(incremental->future_cone_sizes()[i],
              full->future_cone_sizes()[i]);
  }
  EXPECT_EQ(std::vector<TxIndex>(incremental->tips().begin(),
                                 incremental->tips().end()),
            std::vector<TxIndex>(full->tips().begin(), full->tips().end()));
  EXPECT_EQ(incremental->root(), full->root());
}

}  // namespace
}  // namespace tanglefl::tangle
