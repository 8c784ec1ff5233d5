#include "support/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tanglefl {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(to_hex(hasher.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  const std::string msg(64, 'x');
  const auto digest = Sha256::hash(msg);
  // Same input, streamed in odd-sized chunks, must agree.
  Sha256 hasher;
  hasher.update(msg.substr(0, 7));
  hasher.update(msg.substr(7, 31));
  hasher.update(msg.substr(38));
  EXPECT_EQ(to_hex(hasher.finish()), to_hex(digest));
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes fits length in one block; 56 forces an extra block. Reference
  // digests from Python's hashlib.
  EXPECT_EQ(to_hex(Sha256::hash(std::string(55, 'y'))),
            "fb66d40c3bfff05b0d5af8612d0abfbfacc6f5f26c330bc7ad634f1f44bc20ad");
  EXPECT_EQ(to_hex(Sha256::hash(std::string(56, 'y'))),
            "4877e564e5e36e367c7c8d59670774becd3350610b6df4c399c9fa9b66da5813");
}

TEST(Sha256, ResetRestoresInitialState) {
  Sha256 hasher;
  hasher.update("garbage");
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(to_hex(hasher.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(to_hex(Sha256::hash("model-a")), to_hex(Sha256::hash("model-b")));
}

// ------------------------------------------------- block function parity

using BlockFunction = void (*)(std::uint32_t*, const std::uint8_t*,
                               std::size_t) noexcept;

struct NamedBlockFunction {
  const char* name;
  BlockFunction function;
};

/// The portable block function, plus the SHA-NI one where CPUID has SHA.
std::vector<NamedBlockFunction> block_functions() {
  std::vector<NamedBlockFunction> functions = {
      {"portable", &detail::sha256_blocks_portable}};
  if (detail::sha256_shani_supported()) {
    functions.push_back({"sha-ni", &detail::sha256_blocks_shani});
  }
  return functions;
}

/// SHA-256 of `data` computed straight on `function`: whole blocks handed
/// over `blocks_per_call` at a time, then the padded tail.
std::string digest_with(BlockFunction function,
                        std::span<const std::uint8_t> data,
                        std::size_t blocks_per_call = 1) {
  std::array<std::uint32_t, 8> state = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::size_t blocks = data.size() / 64;
  const std::uint8_t* next = data.data();
  while (blocks > 0) {
    const std::size_t run = std::min(blocks, blocks_per_call);
    function(state.data(), next, run);
    next += 64 * run;
    blocks -= run;
  }
  std::vector<std::uint8_t> tail(next, data.data() + data.size());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  for (int shift = 56; shift >= 0; shift -= 8) {
    tail.push_back(static_cast<std::uint8_t>((data.size() * 8) >> shift));
  }
  function(state.data(), tail.data(), tail.size() / 64);
  Sha256Digest digest;
  for (std::size_t i = 0; i < 32; ++i) {
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return to_hex(digest);
}

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

std::vector<std::uint8_t> patterned_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8) + 7);
  }
  return bytes;
}

TEST(Sha256BlockFunctions, FipsVectors) {
  const std::string million(1000000, 'a');
  for (const NamedBlockFunction& f : block_functions()) {
    EXPECT_EQ(digest_with(f.function, bytes_of("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << f.name;
    EXPECT_EQ(digest_with(f.function, bytes_of("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << f.name;
    EXPECT_EQ(
        digest_with(f.function,
                    bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                             "mnopnopq")),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << f.name;
    EXPECT_EQ(digest_with(f.function, bytes_of(million), 1000),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << f.name;
  }
}

TEST(Sha256BlockFunctions, EveryLengthUpTo200Agrees) {
  const std::vector<std::uint8_t> bytes = patterned_bytes(200);
  for (std::size_t n = 0; n <= bytes.size(); ++n) {
    const std::span<const std::uint8_t> data(bytes.data(), n);
    const std::string expected = to_hex(Sha256::hash(data));
    for (const NamedBlockFunction& f : block_functions()) {
      EXPECT_EQ(digest_with(f.function, data), expected)
          << f.name << " length " << n;
    }
  }
}

TEST(Sha256BlockFunctions, StreamedPayloadAgrees) {
  // A payload the size of a 11,178-parameter model, streamed in odd-sized
  // chunks, against each block function fed one block and 7 blocks a call.
  const std::vector<std::uint8_t> payload = patterned_bytes(44712);
  Sha256 streamed;
  std::size_t offset = 0;
  for (std::size_t chunk = 1; offset < payload.size(); chunk += 38) {
    const std::size_t take = std::min(chunk, payload.size() - offset);
    streamed.update(std::span<const std::uint8_t>(payload).subspan(offset, take));
    offset += take;
  }
  const std::string expected = to_hex(streamed.finish());
  EXPECT_EQ(to_hex(Sha256::hash(payload)), expected);
  for (const NamedBlockFunction& f : block_functions()) {
    EXPECT_EQ(digest_with(f.function, payload, 1), expected) << f.name;
    EXPECT_EQ(digest_with(f.function, payload, 7), expected) << f.name;
  }
}

TEST(Sha256, HexEncodingLength) {
  EXPECT_EQ(to_hex(Sha256::hash("x")).size(), 64u);
}

}  // namespace
}  // namespace tanglefl
