// Minimal binary (de)serialization used for model snapshots and tangle
// persistence. Little-endian, length-prefixed, no alignment requirements.
// The reader validates every length against the remaining buffer so that a
// truncated or corrupted stream raises SerializeError instead of reading
// out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tanglefl {

/// Thrown by ByteReader on malformed input.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends primitive values to a growing byte buffer.
class ByteWriter {
 public:
  void write_u8(std::uint8_t v) { buffer_.push_back(v); }
  void write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
  void write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
  void write_i64(std::int64_t v) { write_raw(&v, sizeof v); }
  void write_f32(float v) { write_raw(&v, sizeof v); }
  void write_f64(double v) { write_raw(&v, sizeof v); }

  void write_string(std::string_view s) {
    write_u64(s.size());
    write_raw(s.data(), s.size());
  }

  void write_f32_span(std::span<const float> values) {
    write_u64(values.size());
    write_raw(values.data(), values.size() * sizeof(float));
  }

  void write_u64_span(std::span<const std::uint64_t> values) {
    write_u64(values.size());
    write_raw(values.data(), values.size() * sizeof(std::uint64_t));
  }

  void write_bytes(std::span<const std::uint8_t> bytes) {
    write_u64(bytes.size());
    write_raw(bytes.data(), bytes.size());
  }

  const std::vector<std::uint8_t>& bytes() const noexcept { return buffer_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buffer_); }

 private:
  // GCC 12 at -O3 cannot track the resize preceding the memcpy and emits
  // false-positive stringop-overflow / array-bounds warnings here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
  void write_raw(const void* data, std::size_t size) {
    if (size == 0) return;
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + size);
    std::memcpy(buffer_.data() + offset, data, size);
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  std::vector<std::uint8_t> buffer_;
};

/// Reads primitive values back out of a byte buffer, bounds-checked.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  std::uint8_t read_u8() { return read_value<std::uint8_t>(); }
  std::uint32_t read_u32() { return read_value<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_value<std::uint64_t>(); }
  std::int64_t read_i64() { return read_value<std::int64_t>(); }
  float read_f32() { return read_value<float>(); }
  double read_f64() { return read_value<double>(); }

  std::string read_string() {
    const std::uint64_t n = read_length(1);
    std::string s(n, '\0');
    read_raw(s.data(), n);
    return s;
  }

  std::vector<float> read_f32_vector() {
    const std::uint64_t n = read_length(sizeof(float));
    std::vector<float> v(n);
    read_raw(v.data(), n * sizeof(float));
    return v;
  }

  std::vector<std::uint64_t> read_u64_vector() {
    const std::uint64_t n = read_length(sizeof(std::uint64_t));
    std::vector<std::uint64_t> v(n);
    read_raw(v.data(), n * sizeof(std::uint64_t));
    return v;
  }

  std::vector<std::uint8_t> read_bytes() {
    const std::uint64_t n = read_length(1);
    std::vector<std::uint8_t> v(n);
    read_raw(v.data(), n);
    return v;
  }

  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  T read_value() {
    T v{};
    read_raw(&v, sizeof v);
    return v;
  }

  /// Reads a length prefix and checks that `length * element_size` elements
  /// are actually present, guarding against hostile length fields.
  std::uint64_t read_length(std::size_t element_size) {
    const std::uint64_t n = read_value<std::uint64_t>();
    if (element_size != 0 && n > remaining() / element_size) {
      throw SerializeError("length prefix exceeds remaining buffer");
    }
    return n;
  }

  void read_raw(void* out, std::size_t size) {
    if (size > remaining()) throw SerializeError("read past end of buffer");
    // Empty reads short-circuit: `out` is null for empty vectors and
    // memcpy's arguments are declared nonnull even for size 0 (UBSan flags
    // the call).
    if (size == 0) return;
    std::memcpy(out, data_.data() + offset_, size);
    offset_ += size;
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace tanglefl
