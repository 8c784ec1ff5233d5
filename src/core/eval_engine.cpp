#include "core/eval_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <utility>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/thread_pool.hpp"

namespace tanglefl::core {
namespace {

obs::Counter& cache_hit_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.cache.hit");
  return counter;
}

obs::Counter& cache_miss_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.cache.miss");
  return counter;
}

obs::Counter& forward_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.forwards");
  return counter;
}

obs::Counter& example_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.examples");
  return counter;
}

obs::Counter& batched_group_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.batched.groups");
  return counter;
}

obs::Counter& batched_model_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.batched.models");
  return counter;
}

obs::Counter& pack_reuse_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.batched.pack_reuses");
  return counter;
}

obs::Counter& split_reuse_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.split.reused");
  return counter;
}

obs::Counter& split_build_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.split.built");
  return counter;
}

obs::Histogram& eval_us_histogram() {
  static obs::Histogram& histogram = obs::MetricsRegistry::global().histogram(
      "eval.us", obs::BucketLayout::exponential(1.0, 2.0, 24),
      /*timing=*/true);
  return histogram;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t state) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t mix64(std::uint64_t x) {
  // SplitMix64 finalizer.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// The split-key hash: 8 bytes per multiply-rotate step (the rotation
// brings the high product bits, which carry the most of the state, back
// down to where the next multiply spreads them). A trailing partial word is
// zero-padded and taken last; `reverse` takes the words in descending
// order, the partial one first.
std::uint64_t hash_words(const void* data, std::size_t bytes,
                         std::uint64_t state, bool reverse) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t words = bytes / 8;
  const auto step = [&state](std::uint64_t word) {
    state = std::rotl(state ^ word, 23) * 0x94d049bb133111ebull;
  };
  std::uint64_t tail = 0;
  if (bytes % 8 != 0) std::memcpy(&tail, p + words * 8, bytes % 8);
  if (reverse && bytes % 8 != 0) step(tail);
  for (std::size_t n = 0; n < words; ++n) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + 8 * (reverse ? words - 1 - n : n), 8);
    step(word);
  }
  if (!reverse && bytes % 8 != 0) step(tail);
  return state;
}

/// 128-bit content identity of a split: two independent word passes
/// (forward and reverse order, distinct bases) over features then labels.
/// Used as an exact key; a collision would alias cache entries, so the
/// combined 128 bits + sample count keep that probability negligible.
SplitKey split_key_of(const data::DataSplit& split) {
  const std::span<const float> features = split.features.values();
  const std::size_t feature_bytes = features.size() * sizeof(float);
  const std::size_t label_bytes = split.labels.size() * sizeof(std::int32_t);

  SplitKey key;
  key.samples = split.size();
  std::uint64_t lo = hash_words(features.data(), feature_bytes, kFnvBasis,
                                /*reverse=*/false);
  lo = hash_words(split.labels.data(), label_bytes, lo, /*reverse=*/false);
  std::uint64_t hi = hash_words(split.labels.data(), label_bytes,
                                kFnvBasis ^ 0x9e3779b97f4a7c15ull,
                                /*reverse=*/true);
  hi = hash_words(features.data(), feature_bytes, hi, /*reverse=*/true);
  key.lo = mix64(lo);
  key.hi = mix64(hi);
  return key;
}

/// Per-batch partial score of one model; reduced per model in ascending
/// batch order, which reproduces data::evaluate's accumulation bit-for-bit.
struct BatchScore {
  float loss = 0.0f;
  std::size_t correct = 0;
};

BatchScore score_batch(const nn::Tensor& logits,
                       std::span<const std::int32_t> labels) {
  BatchScore score;
  score.loss = nn::softmax_cross_entropy_loss(logits, labels);
  for (std::size_t row = 0; row < labels.size(); ++row) {
    if (logits.argmax_row(row) == static_cast<std::size_t>(labels[row])) {
      ++score.correct;
    }
  }
  return score;
}

}  // namespace

// The grid's parallel axis keeps every lane busy and packs each batch's
// conv input once. With at least as many batches as lanes, a lane claims
// whole batches, gathers each into its own GEMM panels and runs all k
// models on it; with fewer (a node step's candidates on one validation
// batch), batch b is packed up front into lane b's panels and lanes claim
// single (model, batch) cells. Each lane leases one model and reloads
// parameters only when its next cell belongs to another model. A forward
// is a pure function of (parameters, batch) and every cell writes its own
// score, so every result is bit-identical to that model's own
// data::evaluate, whichever lane ran which cell.
std::vector<data::EvalResult> EvalEngine::run_grid(
    std::span<const std::span<const float>> params,
    const BatchedSplit& batched, ThreadPool* pool) {
  const std::size_t k = params.size();
  assert(k > 0);
  if (batched.samples() == 0) return std::vector<data::EvalResult>(k);
  obs::TraceScope span("eval.forward", &eval_us_histogram());
  const std::size_t batches = batched.batch_count();
  // The pool's workers plus the calling thread (ThreadPool::parallel_for
  // runs a one-worker pool inline).
  const std::size_t lanes =
      pool == nullptr || pool->thread_count() < 2
          ? 1
          : std::min(pool->thread_count() + 1, k * batches);
  const bool by_batch = batches >= lanes;
  std::vector<BatchScore> grid(k * batches);

  struct Lane {
    explicit Lane(ModelLease leased) : lease(std::move(leased)) {}
    ModelLease lease;
    // Index of the parameters the leased model holds.
    std::size_t loaded = std::numeric_limits<std::size_t>::max();
    std::vector<float> panels;
  };
  std::vector<Lane> lane_state;
  lane_state.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) lane_state.emplace_back(acquire());

  // Input-pack sharing applies when the stack opens with a convolution
  // (every leased model has the same architecture); other stacks run
  // per-cell full forwards.
  nn::Model& probe = lane_state.front().lease.model();
  const bool fuse_conv =
      probe.layer_count() > 1 && probe.layer(0).name() == "Conv2D";
  const nn::ops::Conv2DShape shape =
      fuse_conv ? static_cast<nn::Conv2D&>(probe.layer(0)).shape()
                : nn::ops::Conv2DShape{};
  const auto pack = [&](std::size_t b, Lane& lane) {
    const nn::Tensor& x = batched.features(b);
    lane.panels.resize(x.dim(0) * nn::ops::conv2d_packed_input_floats(
                                      shape, x.dim(2), x.dim(3)));
    nn::ops::conv2d_pack_input(x, shape, lane.panels);
  };
  if (fuse_conv) {
    pack_reuse_counter().add(batches * (k - 1));
    if (!by_batch) {
      for (std::size_t b = 0; b < batches; ++b) pack(b, lane_state[b]);
    }
  }

  std::atomic<std::size_t> next{0};
  const std::size_t units = by_batch ? batches : k * batches;
  const auto run_lane = [&](std::size_t l) {
    Lane& lane = lane_state[l];
    nn::Model& model = lane.lease.model();
    for (std::size_t u = next++; u < units; u = next++) {
      const std::size_t b = by_batch ? u : u / k;
      const std::size_t first = by_batch ? 0 : u % k;
      if (by_batch && fuse_conv) pack(b, lane);
      const std::span<const float> panels =
          (by_batch ? lane : lane_state[b]).panels;
      const nn::Tensor& x = batched.features(b);
      for (std::size_t i = first; i < (by_batch ? k : first + 1); ++i) {
        if (lane.loaded != i) {
          model.set_parameters(params[i]);
          lane.loaded = i;
        }
        nn::Tensor logits;
        if (fuse_conv) {
          auto& conv = static_cast<nn::Conv2D&>(model.layer(0));
          nn::Tensor y1({x.dim(0), shape.out_channels,
                         shape.out_extent(x.dim(2)),
                         shape.out_extent(x.dim(3))});
          nn::ops::conv2d_forward_prepacked(panels, x.dim(0), x.dim(2),
                                            x.dim(3), conv.weight(),
                                            conv.bias(), shape, y1);
          logits = model.forward_from(1, y1, /*training=*/false);
        } else {
          logits = model.forward(x, /*training=*/false);
        }
        grid[i * batches + b] = score_batch(logits, batched.labels(b));
      }
    }
  };
  if (lanes == 1) {
    run_lane(0);
  } else {
    pool->parallel_for(lanes, run_lane);
  }

  // Serial reduction in (model, batch) order: per-batch mean loss scaled by
  // the batch count, summed in double over batches in order — the same
  // chain as data::evaluate, and the same counter totals as k lone probes.
  std::vector<data::EvalResult> results(k);
  for (std::size_t i = 0; i < k; ++i) {
    double loss_sum = 0.0;
    std::size_t correct = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      const std::span<const std::int32_t> labels = batched.labels(b);
      loss_sum += static_cast<double>(grid[i * batches + b].loss) *
                  static_cast<double>(labels.size());
      correct += grid[i * batches + b].correct;
      forward_counter().increment();
      example_counter().add(labels.size());
    }
    results[i].samples = batched.samples();
    results[i].loss = loss_sum / static_cast<double>(batched.samples());
    results[i].accuracy =
        static_cast<double>(correct) / static_cast<double>(batched.samples());
  }
  return results;
}

ParamsKey::ParamsKey() : ParamsKey(std::vector<tangle::PayloadId>{}) {}

ParamsKey::ParamsKey(std::vector<tangle::PayloadId> payloads)
    : payloads_(std::move(payloads)),
      hash_(fnv1a(payloads_.data(),
                  payloads_.size() * sizeof(tangle::PayloadId), kFnvBasis)) {}

BatchedSplit::BatchedSplit(const data::DataSplit& split, SplitKey key)
    : key_(key), samples_(split.size()) {
  constexpr std::size_t batch_size = data::kEvalBatchSize;
  features_.reserve((samples_ + batch_size - 1) / batch_size);
  labels_.reserve(features_.capacity());
  // Batch boundaries replicate data::evaluate exactly: [start, start+count)
  // for start = 0, batch_size, 2*batch_size, ...
  for (std::size_t start = 0; start < samples_; start += batch_size) {
    const std::size_t count = std::min(batch_size, samples_ - start);
    data::DataSplit batch = split.slice(start, count);
    bytes_ += batch.features.size() * sizeof(float) +
              batch.labels.size() * sizeof(std::int32_t);
    features_.push_back(std::move(batch.features));
    labels_.push_back(std::move(batch.labels));
  }
}

EvalEngine::EvalEngine(nn::ModelFactory factory,
                       std::size_t batched_budget_bytes)
    : factory_(std::move(factory)),
      batched_budget_bytes_(batched_budget_bytes),
      shards_(std::make_unique<Shard[]>(kShards)) {
  assert(factory_);
}

// Out of line, so owners do not inline the pool and cache teardown. Inlined
// into the perfbench driver's own code, it moves the driver's calibration
// loops off their 64-byte alignment and shifts every calibrated timing
// (ROADMAP.md, "Pin the calibration kernel"). This file's cold
// exception-cleanup code, which the linker places ahead of the driver,
// counts the same way.
EvalEngine::~EvalEngine() = default;

EvalEngine::ModelLease::~ModelLease() {
  if (engine_ != nullptr) engine_->release(std::move(model_));
}

EvalEngine::ModelLease EvalEngine::acquire() {
  std::unique_ptr<nn::Model> model;
  {
    const MutexLock lock(pool_mutex_);
    if (!pool_.empty()) {
      model = std::move(pool_.back());
      pool_.pop_back();
    } else {
      ++models_created_;
    }
  }
  // Factory runs outside the lock; the slot was already accounted for.
  if (model == nullptr) model = std::make_unique<nn::Model>(factory_());
  return ModelLease(this, std::move(model));
}

void EvalEngine::release(std::unique_ptr<nn::Model> model) {
  const MutexLock lock(pool_mutex_);
  pool_.push_back(std::move(model));
}

std::shared_ptr<const BatchedSplit> EvalEngine::find_split(
    const SplitKey& key) {
  for (SplitSlot& slot : splits_) {
    if (slot.batched->key() == key) {
      slot.last_used = ++split_tick_;
      return slot.batched;
    }
  }
  return nullptr;
}

std::shared_ptr<const BatchedSplit> EvalEngine::prepare(
    const data::DataSplit& split) {
  assert(!split.empty());
  const SplitKey key = split_key_of(split);
  {
    const MutexLock lock(split_mutex_);
    if (auto resident = find_split(key)) {
      split_reuse_counter().increment();
      return resident;
    }
  }
  split_build_counter().increment();
  auto batched =
      std::make_shared<const BatchedSplit>(split, key);

  // Evicted splits are parked here and freed after the lock releases: a
  // pooled-test split can be tens of MB, and running its destructor under
  // split_mutex_ would block every concurrent probe's prepare().
  std::vector<std::shared_ptr<const BatchedSplit>> evicted;
  {
    const MutexLock lock(split_mutex_);
    // Another thread may have inserted the same contents while we
    // gathered; prefer the resident copy so probes share one instance.
    if (auto resident = find_split(key)) return resident;
    splits_.push_back(SplitSlot{batched, ++split_tick_});
    split_bytes_ += batched->bytes();
    // Evict least-recently-used entries over budget, always keeping the
    // newest (linear scan over a small vector — no unordered iteration).
    while (split_bytes_ > batched_budget_bytes_ && splits_.size() > 1) {
      std::size_t oldest = 0;
      for (std::size_t i = 1; i < splits_.size(); ++i) {
        if (splits_[i].last_used < splits_[oldest].last_used) oldest = i;
      }
      split_bytes_ -= splits_[oldest].batched->bytes();
      evicted.push_back(std::move(splits_[oldest].batched));
      splits_.erase(splits_.begin() + static_cast<std::ptrdiff_t>(oldest));
    }
  }
  return batched;
}

std::vector<EvalOutcome> EvalEngine::evaluate_many(
    std::span<const EvalRequest> requests, const BatchedSplit& batched,
    ThreadPool* pool) {
  std::vector<EvalOutcome> outcomes(requests.size());
  if (requests.empty()) return outcomes;

  batched_group_counter().increment();

  // Resolve cache hits up front so only misses enter the fused pass. A key
  // duplicated within the group is evaluated once: the first occurrence is
  // the miss, later ones resolve as hits against its result — the same
  // hit/miss sequence the serial probe order produces (where the first
  // probe's insert precedes the second probe's lookup).
  std::vector<std::size_t> miss_requests;  // request index per fused slot
  std::vector<std::pair<std::size_t, std::size_t>> aliases;  // request, slot
  miss_requests.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const EvalRequest& request = requests[i];
    if (!request.key.has_value()) {
      // No cache identity: always evaluated, never cached or deduplicated.
      miss_requests.push_back(i);
      continue;
    }
    data::EvalResult cached;
    if (lookup(ResultKey{*request.key, batched.key()}, cached)) {
      cache_hit_counter().increment();
      outcomes[i] = EvalOutcome{cached, true};
      continue;
    }
    const auto prior = std::find_if(
        miss_requests.begin(), miss_requests.end(),
        [&](std::size_t j) { return requests[j].key == request.key; });
    if (prior != miss_requests.end()) {
      cache_hit_counter().increment();
      aliases.emplace_back(
          i, static_cast<std::size_t>(prior - miss_requests.begin()));
      continue;
    }
    cache_miss_counter().increment();
    miss_requests.push_back(i);
  }

  std::vector<data::EvalResult> results;
  if (!miss_requests.empty()) {
    batched_model_counter().add(miss_requests.size());
    std::vector<std::span<const float>> params(miss_requests.size());
    for (std::size_t slot = 0; slot < miss_requests.size(); ++slot) {
      params[slot] = requests[miss_requests[slot]].params;
    }
    results = run_grid(params, batched, pool);
    for (std::size_t slot = 0; slot < miss_requests.size(); ++slot) {
      const EvalRequest& request = requests[miss_requests[slot]];
      outcomes[miss_requests[slot]] = EvalOutcome{results[slot], false};
      if (request.key.has_value()) {
        insert(ResultKey{*request.key, batched.key()}, results[slot]);
      }
    }
  }
  for (const auto& [request_index, slot] : aliases) {
    outcomes[request_index] = EvalOutcome{results[slot], true};
  }
  return outcomes;
}

std::vector<EvalOutcome> EvalEngine::payloads_eval_many(
    const tangle::ModelStore& store,
    std::span<const tangle::PayloadId> payloads, const BatchedSplit& batched,
    ThreadPool* pool) {
  std::vector<EvalRequest> requests;
  requests.reserve(payloads.size());
  for (const tangle::PayloadId id : payloads) {
    requests.push_back(EvalRequest{store.get(id), ParamsKey::single(id)});
  }
  return evaluate_many(requests, batched, pool);
}

std::size_t EvalEngine::ResultKeyHash::operator()(
    const ResultKey& key) const noexcept {
  // The payload-list pass is precomputed by ParamsKey at construction; only
  // the fixed-size split key is mixed per lookup. The resulting value is
  // unchanged from hashing both parts here.
  const std::uint64_t state =
      fnv1a(&key.split, sizeof(SplitKey), key.params.hash());
  return static_cast<std::size_t>(mix64(state));
}

EvalEngine::Shard& EvalEngine::shard_for(const ResultKey& key) const {
  return shards_[ResultKeyHash{}(key) % kShards];
}

bool EvalEngine::lookup(const ResultKey& key, data::EvalResult& out) const {
  Shard& shard = shard_for(key);
  const ReaderLock lock(shard.mutex);
  const auto it = shard.results.find(key);
  if (it == shard.results.end()) return false;
  out = it->second;
  return true;
}

void EvalEngine::insert(const ResultKey& key, const data::EvalResult& result) {
  Shard& shard = shard_for(key);
  const WriterLock lock(shard.mutex);
  shard.results.emplace(key, result);
}

std::size_t EvalEngine::models_created() const {
  const MutexLock lock(pool_mutex_);
  return models_created_;
}

std::size_t EvalEngine::pool_size() const {
  const MutexLock lock(pool_mutex_);
  return pool_.size();
}

std::size_t EvalEngine::cached_results() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    const ReaderLock lock(shards_[i].mutex);
    total += shards_[i].results.size();
  }
  return total;
}

std::size_t EvalEngine::cached_splits() const {
  const MutexLock lock(split_mutex_);
  return splits_.size();
}

}  // namespace tanglefl::core
