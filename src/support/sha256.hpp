// SHA-256 (FIPS 180-4). Used to content-address model payloads and to
// derive transaction ids in the tangle. Streaming interface plus one-shot
// helpers.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace tanglefl {

/// 32-byte SHA-256 digest.
using Sha256Digest = std::array<std::uint8_t, 32>;

/// Hash-table hasher for digests: SHA-256 output is already uniformly
/// distributed, so its first 8 bytes make a perfectly good table hash.
struct Sha256DigestHash {
  std::size_t operator()(const Sha256Digest& digest) const noexcept {
    std::uint64_t h = 0;
    std::memcpy(&h, digest.data(), sizeof(h));
    return static_cast<std::size_t>(h);
  }
};

class Sha256 {
 public:
  Sha256() noexcept;

  /// Absorbs `data` into the hash state.
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  /// Finalizes and returns the digest. The object must not be reused after
  /// calling finish() without calling reset().
  Sha256Digest finish() noexcept;

  /// Restores the initial state.
  void reset() noexcept;

  /// One-shot digest of a byte span.
  static Sha256Digest hash(std::span<const std::uint8_t> data) noexcept;
  static Sha256Digest hash(std::string_view data) noexcept;

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

/// Lowercase hex encoding of a digest.
std::string to_hex(const Sha256Digest& digest);

/// Number of leading zero bits in the digest.
int leading_zero_bits(const Sha256Digest& digest) noexcept;

}  // namespace tanglefl
