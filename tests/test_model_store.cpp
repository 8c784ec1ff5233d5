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
  // Regression: released entries must leave the live-payload accounting,
  // and hash-only tombstones contribute nothing.
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

  const nn::ParamVector tombstone = {9.0f};
  store.add_released(ModelStore::hash_params(tombstone));
  EXPECT_EQ(store.live_bytes(), 2 * sizeof(float));
  store.release(b.id);
  EXPECT_EQ(store.live_bytes(), 0u);
  EXPECT_EQ(store.total_parameters(), 0u);
}

TEST(ModelStore, FlatDumpLoadsIntoFlatStore) {
  // The v3 body is a zero store flag followed by exactly the v2 body.
  ModelStore flat;
  flat.add({1.0f, 2.0f});
  ByteWriter writer;
  flat.serialize(writer);
  ASSERT_FALSE(writer.bytes().empty());
  EXPECT_EQ(writer.bytes().front(), 0u);

  ByteReader reader(writer.bytes());
  ModelStore restored;
  ModelStore::deserialize_into(reader, restored);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored.get(0), (nn::ParamVector{1.0f, 2.0f}));

  const std::span<const std::uint8_t> body(writer.bytes());
  ByteReader v2_reader(body.subspan(1));
  ModelStore from_v2;
  ModelStore::deserialize_into_v2(v2_reader, from_v2);
  EXPECT_EQ(from_v2.get(0), (nn::ParamVector{1.0f, 2.0f}));
}

TEST(ModelStore, LegacyV1DumpStillLoads) {
  // The v1 body has no flags at all: a count, then every payload in id
  // order.
  ByteWriter v1_writer;
  v1_writer.write_u64(2);
  v1_writer.write_f32_span(nn::ParamVector{1.0f, 2.0f});
  v1_writer.write_f32_span(nn::ParamVector{3.0f});
  ByteReader v1_reader(v1_writer.bytes());
  ModelStore from_v1;
  ModelStore::deserialize_into_v1(v1_reader, from_v1);
  EXPECT_TRUE(v1_reader.exhausted());
  ASSERT_EQ(from_v1.size(), 2u);
  EXPECT_EQ(from_v1.get(0), (nn::ParamVector{1.0f, 2.0f}));
  EXPECT_EQ(from_v1.get(1), (nn::ParamVector{3.0f}));
}

TEST(ModelStore, RetiredChunkedFlagIsRejectedBeforeAllocating) {
  // Flag 1 was the chunked body: cutter parameters, then a u64 chunk-slot
  // count. A hostile count of 2^60 must fail as a SerializeError on the
  // flag, never reach an allocation sized by it.
  ByteWriter writer;
  writer.write_u8(1);
  writer.write_u64(512);
  writer.write_u64(8192);
  writer.write_u32(11);
  writer.write_u64(std::uint64_t{1} << 60);
  ByteReader reader(writer.bytes());
  ModelStore store;
  EXPECT_THROW(ModelStore::deserialize_into(reader, store), SerializeError);
  EXPECT_EQ(store.size(), 0u);
}

TEST(ModelStore, UnknownStoreFlagIsRejected) {
  ModelStore flat;
  flat.add({1.0f});
  ByteWriter writer;
  flat.serialize(writer);
  std::vector<std::uint8_t> bytes = writer.bytes();
  bytes.front() = 2;
  ByteReader reader(bytes);
  ModelStore store;
  EXPECT_THROW(ModelStore::deserialize_into(reader, store), SerializeError);
}

TEST(ModelStore, SerializeRoundTripsReleasedEntries) {
  ModelStore store;
  const auto a = store.add({1.0f, 2.0f});
  const auto b = store.add({3.0f, 4.0f});
  const auto c = store.add({5.0f});
  store.release(b.id);

  ByteWriter writer;
  store.serialize(writer);
  ByteReader reader(writer.bytes());
  ModelStore restored;
  ModelStore::deserialize_into(reader, restored);

  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.get(a.id), (nn::ParamVector{1.0f, 2.0f}));
  EXPECT_TRUE(restored.is_released(b.id));
  EXPECT_EQ(to_hex(restored.hash_of(b.id)), to_hex(b.hash));
  EXPECT_THROW((void)restored.get(b.id), std::logic_error);
  EXPECT_EQ(restored.get(c.id), (nn::ParamVector{5.0f}));
}

}  // namespace
}  // namespace tanglefl::tangle
