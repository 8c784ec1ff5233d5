#include "support/serialize.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace tanglefl {
namespace {

TEST(Serialize, PrimitiveRoundTrip) {
  ByteWriter writer;
  writer.write_u8(0xab);
  writer.write_u32(0xdeadbeef);
  writer.write_u64(0x0123456789abcdefULL);
  writer.write_i64(-42);
  writer.write_f32(3.5f);
  writer.write_f64(-2.25);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u8(), 0xab);
  EXPECT_EQ(reader.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.read_i64(), -42);
  EXPECT_EQ(reader.read_f32(), 3.5f);
  EXPECT_EQ(reader.read_f64(), -2.25);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, StringRoundTrip) {
  ByteWriter writer;
  writer.write_string("hello tangle");
  writer.write_string("");
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_string(), "hello tangle");
  EXPECT_EQ(reader.read_string(), "");
}

TEST(Serialize, FloatVectorRoundTrip) {
  const std::vector<float> values = {1.0f, -2.5f, 0.0f, 1e-7f, 1e7f};
  ByteWriter writer;
  writer.write_f32_span(values);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_f32_vector(), values);
}

TEST(Serialize, U64VectorRoundTrip) {
  const std::vector<std::uint64_t> values = {
      0, 1, std::numeric_limits<std::uint64_t>::max()};
  ByteWriter writer;
  writer.write_u64_span(values);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u64_vector(), values);
}

TEST(Serialize, BytesRoundTrip) {
  const std::vector<std::uint8_t> payload = {0x00, 0xff, 0x7f, 0x80};
  ByteWriter writer;
  writer.write_bytes(payload);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_bytes(), payload);
}

TEST(Serialize, ReadPastEndThrows) {
  ByteWriter writer;
  writer.write_u8(1);
  ByteReader reader(writer.bytes());
  (void)reader.read_u8();
  EXPECT_THROW((void)reader.read_u32(), SerializeError);
}

TEST(Serialize, HostileLengthPrefixThrows) {
  ByteWriter writer;
  writer.write_u64(std::numeric_limits<std::uint64_t>::max());  // length
  writer.write_u32(0);  // 4 bytes of "payload"
  ByteReader reader(writer.bytes());
  EXPECT_THROW((void)reader.read_f32_vector(), SerializeError);
}

TEST(Serialize, TruncatedStringThrows) {
  ByteWriter writer;
  writer.write_string("hello");
  const std::vector<std::uint8_t> bytes = writer.take();
  // Drop the last two bytes of the string body.
  ByteReader reader(std::span(bytes.data(), bytes.size() - 2));
  EXPECT_THROW((void)reader.read_string(), SerializeError);
}

TEST(Serialize, RemainingCountsDown) {
  ByteWriter writer;
  writer.write_u32(7);
  writer.write_u32(8);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.remaining(), 8u);
  (void)reader.read_u32();
  EXPECT_EQ(reader.remaining(), 4u);
}

TEST(Serialize, EmptyVectorRoundTrip) {
  ByteWriter writer;
  writer.write_f32_span(std::vector<float>{});
  ByteReader reader(writer.bytes());
  EXPECT_TRUE(reader.read_f32_vector().empty());
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, TakeMovesBuffer) {
  ByteWriter writer;
  writer.write_u8(9);
  const auto bytes = writer.take();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_TRUE(writer.bytes().empty());
}

}  // namespace
}  // namespace tanglefl
