#include "tangle/model_store.hpp"

#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tanglefl::tangle {
namespace {

obs::Counter& add_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("store.add.count");
  return counter;
}

obs::Counter& dedup_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("store.add.deduplicated");
  return counter;
}

obs::Counter& get_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("store.get.count");
  return counter;
}

obs::Counter& released_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("store.released.count");
  return counter;
}

obs::Histogram& add_timing_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "store.add_us", obs::BucketLayout::exponential(1.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

}  // namespace

Sha256Digest ModelStore::hash_params(std::span<const float> params) {
  return Sha256::hash(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(params.data()),
      params.size() * sizeof(float)));
}

ModelStore::AddResult ModelStore::add(nn::ParamVector params) {
  obs::TraceScope span("store.add", &add_timing_histogram());
  add_counter().increment();
  AddResult result;
  result.hash = hash_params(params);

  WriterLock lock(mutex_);
  if (const auto it = by_hash_.find(result.hash); it != by_hash_.end()) {
    result.id = it->second;
    result.deduplicated = true;
    dedup_counter().increment();
    return result;
  }
  result.id = entries_.size();
  live_floats_ += params.size();
  entries_.push_back({std::move(params), result.hash, /*released=*/false});
  by_hash_.emplace(result.hash, result.id);
  return result;
}

const nn::ParamVector& ModelStore::get(PayloadId id) const {
  get_counter().increment();
  ReaderLock lock(mutex_);
  if (id >= entries_.size()) {
    throw std::out_of_range("ModelStore::get: unknown payload id");
  }
  if (entries_[id].released) {
    throw std::logic_error("ModelStore::get: payload was released");
  }
  return entries_[id].params;
}

void ModelStore::release(PayloadId id) {
  released_counter().increment();
  WriterLock lock(mutex_);
  if (id >= entries_.size()) {
    throw std::out_of_range("ModelStore::release: unknown payload id");
  }
  Entry& entry = entries_[id];
  if (entry.released) return;
  by_hash_.erase(entry.hash);
  live_floats_ -= entry.params.size();
  entry.params.clear();
  entry.params.shrink_to_fit();
  entry.released = true;
}

bool ModelStore::is_released(PayloadId id) const {
  ReaderLock lock(mutex_);
  if (id >= entries_.size()) {
    throw std::out_of_range("ModelStore::is_released: unknown payload id");
  }
  return entries_[id].released;
}

PayloadId ModelStore::add_released(const Sha256Digest& hash) {
  WriterLock lock(mutex_);
  const PayloadId id = entries_.size();
  entries_.push_back({nn::ParamVector{}, hash, /*released=*/true});
  return id;
}

const Sha256Digest& ModelStore::hash_of(PayloadId id) const {
  ReaderLock lock(mutex_);
  if (id >= entries_.size()) {
    throw std::out_of_range("ModelStore::hash_of: unknown payload id");
  }
  return entries_[id].hash;
}

std::size_t ModelStore::size() const {
  ReaderLock lock(mutex_);
  return entries_.size();
}

void ModelStore::serialize(ByteWriter& writer) const {
  ReaderLock lock(mutex_);
  writer.write_u8(0);  // store flag: 0 = flat, the only body written
  writer.write_u64(entries_.size());
  for (const auto& entry : entries_) {
    // Liveness flag per entry: released payloads persist hash-only, so a
    // pruned ledger's dump shrinks with its store.
    writer.write_u8(entry.released ? 0 : 1);
    if (entry.released) {
      writer.write_bytes(entry.hash);
    } else {
      writer.write_f32_span(entry.params);
    }
  }
}

void ModelStore::deserialize_into(ByteReader& reader, ModelStore& store) {
  if (reader.read_u8() != 0) {
    throw SerializeError("ModelStore: unsupported store flag");
  }
  deserialize_into_v2(reader, store);
}

void ModelStore::deserialize_into_v2(ByteReader& reader, ModelStore& store) {
  const std::uint64_t count = reader.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t live = reader.read_u8();
    if (live == 1) {
      const auto added = store.add(reader.read_f32_vector());
      if (added.id != i) {
        // Duplicate payloads collapse on re-add; a well-formed dump never
        // contains duplicates because add() deduplicated on write.
        throw SerializeError("ModelStore: duplicate payload in dump");
      }
      continue;
    }
    if (live != 0) {
      throw SerializeError("ModelStore: bad payload liveness flag");
    }
    const std::vector<std::uint8_t> hash_bytes = reader.read_bytes();
    Sha256Digest hash{};
    if (hash_bytes.size() != hash.size()) {
      throw SerializeError("ModelStore: bad released payload hash size");
    }
    std::memcpy(hash.data(), hash_bytes.data(), hash.size());
    store.add_released(hash);
  }
}

void ModelStore::deserialize_into_v1(ByteReader& reader, ModelStore& store) {
  const std::uint64_t count = reader.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto added = store.add(reader.read_f32_vector());
    if (added.id != i) {
      throw SerializeError("ModelStore: duplicate payload in dump");
    }
  }
}

std::size_t ModelStore::total_parameters() const {
  ReaderLock lock(mutex_);
  return live_floats_;
}

std::size_t ModelStore::live_bytes() const {
  ReaderLock lock(mutex_);
  return live_floats_ * sizeof(float);
}

}  // namespace tanglefl::tangle
