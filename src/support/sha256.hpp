// SHA-256 (FIPS 180-4). Used to content-address model payloads and to
// derive transaction ids in the tangle. Streaming interface plus one-shot
// helpers. Whole blocks are compressed with the x86 SHA extensions when
// CPUID reports them, and by portable code otherwise; both give the same
// digest.
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
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

namespace detail {

/// Compresses `blocks` consecutive 64-byte blocks of `data` into the eight
/// state words. Both forms compute the same FIPS 180-4 function; the SHA-NI
/// form may only run where sha256_shani_supported() is true.
void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks) noexcept;
void sha256_blocks_shani(std::uint32_t* state, const std::uint8_t* data,
                         std::size_t blocks) noexcept;

/// True when CPUID reports the SHA extensions and SSE4.1 (detected once).
bool sha256_shani_supported() noexcept;

}  // namespace detail

/// Lowercase hex encoding of a digest.
std::string to_hex(const Sha256Digest& digest);

}  // namespace tanglefl
