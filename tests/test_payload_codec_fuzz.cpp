// Seeded mutation fuzzing of PayloadCodec::decode, the only decoder of
// untrusted bytes in src/. A corpus of real frames (both dense best-of
// outcomes, and the quantize and topk stage bodies with and without the
// entropy stage) is mutated by bit flips, truncation, splicing and varint
// inflation under a fixed seed and iteration budget, so the run is
// reproducible and takes seconds under the asan preset. Every input must
// either throw SerializeError or decode to exactly param_count values the
// encoder accepts again; the sanitizers turn any out-of-bounds read or UB
// into a failure.
#include "tangle/payload_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace tanglefl::tangle {
namespace {

struct Seed {
  std::string spec;
  nn::ParamVector base;  // the base the frame was coded against
  EncodedPayload frame;
};

nn::ParamVector gaussian(std::size_t n, double sigma, Rng& rng) {
  nn::ParamVector values(n);
  for (float& value : values) value = static_cast<float>(rng.normal(0.0, sigma));
  return values;
}

std::vector<Seed> corpus() {
  constexpr std::size_t kParams = 384;
  Rng rng(2024);
  const nn::ParamVector base = gaussian(kParams, 0.3, rng);
  nn::ParamVector trained = base;  // delta wins
  for (float& value : trained) {
    value += static_cast<float>(rng.normal(0.0, 0.01));
  }
  nn::ParamVector unrelated = gaussian(kParams, 1.0, rng);  // raw wins
  std::vector<Seed> seeds;
  for (const char* spec :
       {"delta,entropy", "delta,quantize", "delta,quantize,entropy",
        "delta,topk:0.05", "delta,topk:0.05,entropy",
        "delta,topk:0.05,quantize,entropy", "entropy"}) {
    const PayloadCodec codec(parse_codec_spec(spec));
    for (const nn::ParamVector* params : {&trained, &unrelated}) {
      seeds.push_back({spec, base, codec.encode(*params, base)});
    }
  }
  return seeds;
}

/// Rewrites the varint starting at `at` (if one starts there) with a
/// larger value, or with redundant continuation bytes that keep its value.
void inflate_varint(std::vector<std::uint8_t>& bytes, std::size_t at,
                    Rng& rng) {
  std::size_t end = at;
  while (end < bytes.size() && (bytes[end] & 0x80) != 0) ++end;
  if (end >= bytes.size()) return;
  std::uint64_t value = 0;
  for (std::size_t i = at, shift = 0; i <= end && shift < 64; ++i, shift += 7) {
    value |= static_cast<std::uint64_t>(bytes[i] & 0x7F) << shift;
  }
  std::vector<std::uint8_t> coded;
  if (rng.bernoulli(0.5)) {
    value = value * (2 + rng.uniform_index(1u << 20)) + rng.uniform_index(64);
    if (rng.bernoulli(0.25)) value = ~std::uint64_t{0} - rng.uniform_index(16);
    for (; value >= 0x80; value >>= 7) {
      coded.push_back(static_cast<std::uint8_t>(value) | 0x80);
    }
    coded.push_back(static_cast<std::uint8_t>(value));
  } else {
    for (; value >= 0x80; value >>= 7) {
      coded.push_back(static_cast<std::uint8_t>(value) | 0x80);
    }
    coded.push_back(static_cast<std::uint8_t>(value) | 0x80);
    const std::size_t padding = 1 + rng.uniform_index(10);
    for (std::size_t i = 1; i < padding; ++i) coded.push_back(0x80);
    coded.push_back(0x00);
  }
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
              bytes.begin() + static_cast<std::ptrdiff_t>(end + 1));
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), coded.begin(),
               coded.end());
}

std::vector<std::uint8_t> mutate(const std::vector<Seed>& seeds,
                                 const Seed& seed, Rng& rng) {
  std::vector<std::uint8_t> bytes = seed.frame.bytes;
  const std::size_t rounds = 1 + rng.uniform_index(3);
  for (std::size_t round = 0; round < rounds && !bytes.empty(); ++round) {
    switch (rng.uniform_index(4)) {
      case 0: {  // bit flips
        const std::size_t flips = 1 + rng.uniform_index(8);
        for (std::size_t i = 0; i < flips; ++i) {
          bytes[rng.uniform_index(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.uniform_index(8));
        }
        break;
      }
      case 1:  // truncation
        bytes.resize(rng.uniform_index(bytes.size()));
        break;
      case 2: {  // splice: this frame's prefix, another frame's suffix
        const std::vector<std::uint8_t>& other =
            seeds[rng.uniform_index(seeds.size())].frame.bytes;
        const std::size_t cut = rng.uniform_index(bytes.size() + 1);
        const std::size_t from = rng.uniform_index(other.size() + 1);
        bytes.resize(cut);
        bytes.insert(bytes.end(),
                     other.begin() + static_cast<std::ptrdiff_t>(from),
                     other.end());
        break;
      }
      default:  // varint inflation: the count, the plain size, or anywhere
        inflate_varint(bytes,
                       rng.bernoulli(0.5) ? 1 + rng.uniform_index(4)
                                          : rng.uniform_index(bytes.size()),
                       rng);
        break;
    }
  }
  return bytes;
}

TEST(PayloadCodecFuzz, MutatedFramesThrowOrDecodeToParamCount) {
  constexpr std::size_t kIterations = 50000;
  const std::vector<Seed> seeds = corpus();
  // Every seed frame decodes.
  for (const Seed& seed : seeds) {
    const PayloadCodec codec(parse_codec_spec(seed.spec));
    const nn::ParamVector decoded = codec.decode(seed.frame, seed.base);
    ASSERT_EQ(decoded.size(), seed.frame.param_count) << seed.spec;
  }
  // Flag and header bytes pick the stage path, so both best-of outcomes
  // must be in the corpus.
  EXPECT_EQ(seeds[0].frame.bytes.front(), 0x09);
  EXPECT_EQ(seeds[1].frame.bytes.front(), 0x18);

  Rng rng(17);
  std::size_t rejected = 0;
  std::size_t decoded_count = 0;
  std::size_t non_canonical = 0;
  std::size_t unencodable = 0;
  for (std::size_t iteration = 0; iteration < kIterations; ++iteration) {
    const Seed& seed = seeds[rng.uniform_index(seeds.size())];
    EncodedPayload mutated;
    mutated.param_count = seed.frame.param_count;
    mutated.bytes = mutate(seeds, seed, rng);
    // Half the inputs decode without the base the frame was coded against.
    const bool with_base = rng.bernoulli(0.5);
    const std::span<const float> base =
        with_base ? std::span<const float>(seed.base) : std::span<const float>{};
    const PayloadCodec codec(parse_codec_spec(seed.spec));
    nn::ParamVector values;
    try {
      values = codec.decode(mutated, base);
    } catch (const SerializeError&) {
      ++rejected;
      continue;
    } catch (const std::exception& error) {
      FAIL() << "iteration " << iteration << " spec " << seed.spec
             << ": decode threw a non-SerializeError: " << error.what();
    }
    ASSERT_EQ(values.size(), mutated.param_count)
        << "iteration " << iteration << " spec " << seed.spec;
    ++decoded_count;
    try {
      if (codec.encode(values, base).bytes != mutated.bytes) ++non_canonical;
    } catch (const std::invalid_argument&) {
      ++unencodable;  // e.g. non-finite values nn::quantize_params refuses
    }
  }
  EXPECT_EQ(rejected + decoded_count, kIterations);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded_count, 0u);
  // The decoder rejects every quantize scale the encoder cannot produce, so
  // nothing it accepts decodes to values the encoder refuses.
  EXPECT_EQ(unencodable, 0u);
  // Decoding is not canonical: a mutated frame may decode to values that
  // re-encode to other bytes. Reported, not required.
  RecordProperty("rejected", static_cast<int>(rejected));
  RecordProperty("decoded", static_cast<int>(decoded_count));
  RecordProperty("non_canonical", static_cast<int>(non_canonical));
  RecordProperty("unencodable", static_cast<int>(unencodable));
  std::printf(
      "fuzz: %zu rejected, %zu decoded: %zu re-encode to other bytes, %zu "
      "cannot be re-encoded\n",
      rejected, decoded_count, non_canonical, unencodable);
}

}  // namespace
}  // namespace tanglefl::tangle
