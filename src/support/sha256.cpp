#include "support/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define TANGLEFL_SHA256_X86 1
#endif

namespace tanglefl {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

/// Compresses whole blocks with the fastest form this CPU runs.
void compress(std::uint32_t* state, const std::uint8_t* data,
              std::size_t blocks) noexcept {
  if (blocks == 0) return;
  if (detail::sha256_shani_supported()) {
    detail::sha256_blocks_shani(state, data, blocks);
  } else {
    detail::sha256_blocks_portable(state, data, blocks);
  }
}

#ifdef TANGLEFL_SHA256_X86
/// Four rounds: `wk` holds message words plus round constants for rounds
/// i..i+3; SHA256RNDS2 consumes the low two, then the high two.
__attribute__((target("sha,sse4.1"))) inline void four_rounds(
    __m128i& abef, __m128i& cdgh, __m128i wk) noexcept {
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Four big-endian message words.
__attribute__((target("sha,sse4.1"))) inline __m128i load_words(
    const std::uint8_t* p, __m128i byte_swap) noexcept {
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), byte_swap);
}

__attribute__((target("sha,sse4.1"))) inline __m128i round_constants(
    std::size_t group) noexcept {
  return _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * group));
}
#endif

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (std::size_t i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef TANGLEFL_SHA256_X86

// The SHA extensions keep the state as two registers, ABEF and CDGH (A in
// the top lane), and extend the message schedule four words at a time:
// W[i..i+3] = msg2(msg1(W[i-16..], W[i-12..]) + W[i-7..i-4], W[i-4..]).
__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani(
    std::uint32_t* state, const std::uint8_t* data,
    std::size_t blocks) noexcept {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_words(data, byte_swap);
    __m128i w1 = load_words(data + 16, byte_swap);
    __m128i w2 = load_words(data + 32, byte_swap);
    __m128i w3 = load_words(data + 48, byte_swap);
    for (std::size_t group = 0; group < 12; ++group) {
      four_rounds(abef, cdgh, _mm_add_epi32(w0, round_constants(group)));
      const __m128i next = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                        _mm_alignr_epi8(w3, w2, 4)),
          w3);
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = next;
    }
    four_rounds(abef, cdgh, _mm_add_epi32(w0, round_constants(12)));
    four_rounds(abef, cdgh, _mm_add_epi32(w1, round_constants(13)));
    four_rounds(abef, cdgh, _mm_add_epi32(w2, round_constants(14)));
    four_rounds(abef, cdgh, _mm_add_epi32(w3, round_constants(15)));
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool sha256_shani_supported() noexcept {
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    const bool sse41 = (ecx & (1u << 19)) != 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return sse41 && (ebx & (1u << 29)) != 0;
  }();
  return supported;
}

#else

void sha256_blocks_shani(std::uint32_t* state, const std::uint8_t* data,
                         std::size_t blocks) noexcept {
  sha256_blocks_portable(state, data, blocks);
}

bool sha256_shani_supported() noexcept { return false; }

#endif

}  // namespace detail

Sha256::Sha256() noexcept { reset(); }

void Sha256::reset() noexcept {
  state_ = kInitialState;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == buffer_.size()) {
      compress(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  compress(state_.data(), data.data() + offset, blocks);
  offset += 64 * blocks;
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256Digest Sha256::finish() noexcept {
  // The buffered tail, 0x80, zeros, and the big-endian bit length in the
  // last 8 bytes: one block, or two when fewer than 9 bytes remain free.
  std::array<std::uint8_t, 128> tail{};
  std::memcpy(tail.data(), buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t blocks = buffered_ < 56 ? 1 : 2;
  const std::uint64_t bit_length = total_bytes_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[64 * blocks - 1 - i] = static_cast<std::uint8_t>(bit_length >> (8 * i));
  }
  compress(state_.data(), tail.data(), blocks);
  buffered_ = 0;

  Sha256Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::hash(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string to_hex(const Sha256Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0x0f]);
  }
  return out;
}

}  // namespace tanglefl
