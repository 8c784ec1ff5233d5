#include "tangle/model_store.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

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
  return insert(params, hash_params(params));
}

ModelStore::AddResult ModelStore::add(nn::ParamVector params,
                                      const Sha256Digest& hash) {
  TANGLEFL_DCHECK_MSG(hash_params(params) == hash,
                      "ModelStore::add: digest does not match the payload");
  return insert(params, hash);
}

ModelStore::AddResult ModelStore::insert(nn::ParamVector& params,
                                         const Sha256Digest& hash) {
  obs::TraceScope span("store.add", &add_timing_histogram());
  add_counter().increment();
  AddResult result;
  result.hash = hash;

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

std::size_t ModelStore::total_parameters() const {
  ReaderLock lock(mutex_);
  return live_floats_;
}

std::size_t ModelStore::live_bytes() const {
  ReaderLock lock(mutex_);
  return live_floats_ * sizeof(float);
}

}  // namespace tanglefl::tangle
