#include "tangle/model_store.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace tanglefl::tangle {
namespace {

TEST(ModelStore, AddAndGet) {
  ModelStore store;
  const auto added = store.add({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(store.get(added.id), (nn::ParamVector{1.0f, 2.0f, 3.0f}));
  EXPECT_FALSE(added.deduplicated);
}

TEST(ModelStore, DeduplicatesIdenticalPayloads) {
  ModelStore store;
  const auto first = store.add({1.0f, 2.0f});
  const auto second = store.add({1.0f, 2.0f});
  EXPECT_EQ(first.id, second.id);
  EXPECT_TRUE(second.deduplicated);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ModelStore, DistinctPayloadsGetDistinctIds) {
  ModelStore store;
  const auto a = store.add({1.0f});
  const auto b = store.add({2.0f});
  EXPECT_NE(a.id, b.id);
  EXPECT_NE(to_hex(a.hash), to_hex(b.hash));
  EXPECT_EQ(store.size(), 2u);
}

TEST(ModelStore, HashMatchesStaticHasher) {
  ModelStore store;
  const nn::ParamVector params = {0.5f, -1.5f};
  const auto added = store.add(params);
  EXPECT_EQ(to_hex(added.hash), to_hex(ModelStore::hash_params(params)));
  EXPECT_EQ(to_hex(store.hash_of(added.id)), to_hex(added.hash));
}

TEST(ModelStore, UnknownIdThrows) {
  ModelStore store;
  EXPECT_THROW((void)store.get(0), std::out_of_range);
  EXPECT_THROW((void)store.hash_of(42), std::out_of_range);
}

TEST(ModelStore, ReferencesStableAcrossGrowth) {
  ModelStore store;
  const auto first = store.add({7.0f});
  const nn::ParamVector* address = &store.get(first.id);
  for (int i = 0; i < 100; ++i) {
    store.add({static_cast<float>(i) + 100.0f});
  }
  EXPECT_EQ(&store.get(first.id), address);
  EXPECT_EQ(store.get(first.id)[0], 7.0f);
}

TEST(ModelStore, TotalParameters) {
  ModelStore store;
  store.add({1, 2, 3});
  store.add({4, 5});
  EXPECT_EQ(store.total_parameters(), 5u);
}

TEST(ModelStore, ConcurrentReadsAndWrites) {
  ModelStore store;
  const auto base = store.add({1.0f, 2.0f});
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        if (store.get(base.id).size() != 2) failed = true;
        // Offset to avoid colliding with the base payload {1, 2}.
        store.add({static_cast<float>(t) + 10.0f, static_cast<float>(i)});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  // 4 threads x 200 unique (t, i) pairs plus the base payload.
  EXPECT_EQ(store.size(), 801u);
}

TEST(ModelStore, EmptyPayloadAllowed) {
  ModelStore store;
  const auto added = store.add({});
  EXPECT_TRUE(store.get(added.id).empty());
}

TEST(ModelStore, ReleaseKeepsHashDropsParams) {
  ModelStore store;
  const auto a = store.add({1.0f, 2.0f});
  const auto b = store.add({3.0f});
  store.release(a.id);
  EXPECT_TRUE(store.is_released(a.id));
  EXPECT_FALSE(store.is_released(b.id));
  EXPECT_THROW((void)store.get(a.id), std::logic_error);
  EXPECT_EQ(to_hex(store.hash_of(a.id)), to_hex(a.hash));  // hash survives
  EXPECT_EQ(store.get(b.id), (nn::ParamVector{3.0f}));
  EXPECT_EQ(store.total_parameters(), 1u);  // only b's params remain
  store.release(a.id);  // idempotent
  EXPECT_EQ(store.size(), 2u);
}

TEST(ModelStore, ReleasedHashCanBeReAdded) {
  // Releasing drops the dedup index entry: re-adding the same params mints
  // a fresh id instead of resurrecting the tombstone.
  ModelStore store;
  const auto a = store.add({4.0f, 5.0f});
  store.release(a.id);
  const auto again = store.add({4.0f, 5.0f});
  EXPECT_NE(again.id, a.id);
  EXPECT_FALSE(again.deduplicated);
  EXPECT_TRUE(store.is_released(a.id));
  EXPECT_EQ(store.get(again.id), (nn::ParamVector{4.0f, 5.0f}));
}

TEST(ModelStore, LiveBytesTracksAddsAndReleases) {
  // Regression: released entries must leave the live-payload accounting.
  ModelStore store;
  EXPECT_EQ(store.live_bytes(), 0u);
  const auto a = store.add({1.0f, 2.0f, 3.0f});
  const auto b = store.add({4.0f, 5.0f});
  EXPECT_EQ(store.live_bytes(), 5 * sizeof(float));
  EXPECT_EQ(store.live_bytes(), store.total_parameters() * sizeof(float));

  store.release(a.id);
  EXPECT_EQ(store.live_bytes(), 2 * sizeof(float));
  store.release(a.id);  // idempotent: no double subtraction
  EXPECT_EQ(store.live_bytes(), 2 * sizeof(float));

  store.release(b.id);
  EXPECT_EQ(store.live_bytes(), 0u);
  EXPECT_EQ(store.total_parameters(), 0u);
}

}  // namespace
}  // namespace tanglefl::tangle
