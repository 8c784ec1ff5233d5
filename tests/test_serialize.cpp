#include "support/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string_view>
#include <vector>

namespace tanglefl {
namespace {

TEST(Serialize, PrimitiveRoundTrip) {
  ByteWriter writer;
  writer.write_u8(0xab);
  writer.write_f32(3.5f);
  writer.write_f32(-0.0f);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u8(), 0xab);
  EXPECT_EQ(reader.read_f32(), 3.5f);
  EXPECT_TRUE(std::signbit(reader.read_f32()));
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, StringRoundTrip) {
  // A string is framed like a byte blob: u64 length, then its bytes.
  ByteWriter writer;
  writer.write_string("hello tangle");
  writer.write_string("");
  ByteReader reader(writer.bytes());
  const std::string_view text = "hello tangle";
  EXPECT_EQ(reader.read_bytes(),
            std::vector<std::uint8_t>(text.begin(), text.end()));
  EXPECT_TRUE(reader.read_bytes().empty());
  EXPECT_TRUE(reader.exhausted());
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
  EXPECT_THROW((void)reader.read_f32(), SerializeError);
}

TEST(Serialize, HostileLengthPrefixThrows) {
  ByteWriter writer;
  writer.write_u64(std::numeric_limits<std::uint64_t>::max());  // length
  writer.write_f32(0.0f);  // 4 bytes of "payload"
  ByteReader reader(writer.bytes());
  EXPECT_THROW((void)reader.read_bytes(), SerializeError);
}

TEST(Serialize, TruncatedStringThrows) {
  ByteWriter writer;
  writer.write_string("hello");
  const std::vector<std::uint8_t> bytes = writer.take();
  // Drop the last two bytes of the string body.
  ByteReader reader(std::span(bytes.data(), bytes.size() - 2));
  EXPECT_THROW((void)reader.read_bytes(), SerializeError);
}

TEST(Serialize, RemainingCountsDown) {
  ByteWriter writer;
  writer.write_f32(7.0f);
  writer.write_f32(8.0f);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.remaining(), 8u);
  (void)reader.read_f32();
  EXPECT_EQ(reader.remaining(), 4u);
}

TEST(Serialize, EmptyVectorRoundTrip) {
  ByteWriter writer;
  writer.write_bytes(std::vector<std::uint8_t>{});
  ByteReader reader(writer.bytes());
  EXPECT_TRUE(reader.read_bytes().empty());
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
