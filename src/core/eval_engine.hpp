// Shared evaluation engine: every loss probe of Algorithm 2 and the
// Section III-E defence goes through evaluate_many (or its payload-list
// wrapper) instead of building a throwaway nn::Model and re-gathering
// minibatches per probe. A probe group of any size, one model included,
// takes the same path:
//
//   * payload-result cache — a concurrent, sharded map from
//     (parameter identity, split identity) to the full EvalResult. The
//     parameter identity is the ordered list of ModelStore payload ids the
//     parameters average (a single id for a tip payload; the top-n list
//     for a reference model) — exact, because the store content-
//     deduplicates payloads. The split identity is a 128-bit content hash
//     of the validation data. Payloads and user splits are immutable, so a
//     cached loss is bit-exact forever: it survives across rounds and is
//     shared by every participant evaluating the same model on the same
//     split. Keyless requests (freshly trained weights) bypass it.
//   * pre-batched validation — a split is gathered into forward-ready
//     batch tensors once (BatchedSplit) and reused by every probe against
//     it, killing the per-eval DataSplit::gather copies.
//   * fused grid — the group's cache misses run as a models×batches grid,
//     on the pool the caller gives. Lanes claim whole batches when there
//     are at least as many batches as lanes, else single (model, batch)
//     cells; each lane leases one pooled nn::Model (so layer allocations
//     and workspaces amortize across the run). A stack opening with a
//     convolution gathers each input batch into GEMM panels once for
//     every model.
//
// Every result is bit-identical to the direct `factory() + set_parameters
// + data::evaluate` path: evaluation runs forward passes only
// (training=false; Dropout is identity, no layer keeps running statistics),
// batches use data::kEvalBatchSize, data::evaluate's own batch size, and
// each model's per-batch losses are reduced serially in batch order.
//
// Concurrency: all members are internally locked; node steps running under
// ThreadPool::parallel_for may probe concurrently. Distinct users carry
// distinct validation splits, so concurrent probes virtually never share a
// cache key and the hit/miss counter sequences stay deterministic for a
// given (seed, config).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "data/training.hpp"
#include "nn/model.hpp"
#include "support/sync.hpp"
#include "tangle/model_store.hpp"

namespace tanglefl {
class ThreadPool;
}

namespace tanglefl::core {

/// 128-bit content identity of a DataSplit (feature bytes + labels, hashed
/// 8 bytes per step in two independent passes) plus its sample count.
struct SplitKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t samples = 0;

  friend bool operator==(const SplitKey&, const SplitKey&) = default;
};

/// A validation split gathered into contiguous, forward-ready batches once.
/// Immutable; shared across probes (and rounds) via shared_ptr.
class BatchedSplit {
 public:
  /// Batches of data::kEvalBatchSize, with data::evaluate's boundaries.
  BatchedSplit(const data::DataSplit& split, SplitKey key);

  const SplitKey& key() const noexcept { return key_; }
  std::size_t samples() const noexcept { return samples_; }
  std::size_t batch_count() const noexcept { return features_.size(); }
  const nn::Tensor& features(std::size_t batch) const {
    return features_[batch];
  }
  std::span<const std::int32_t> labels(std::size_t batch) const {
    return labels_[batch];
  }
  /// Approximate retained bytes (for the engine's LRU budget).
  std::size_t bytes() const noexcept { return bytes_; }

 private:
  SplitKey key_;
  std::size_t samples_ = 0;
  std::size_t bytes_ = 0;
  std::vector<nn::Tensor> features_;
  std::vector<std::vector<std::int32_t>> labels_;
};

/// Identity of a parameter vector as the ordered ModelStore payload list it
/// averages. Exact: payload ids are content-deduplicated by the store, and
/// nn::average_params is a pure function of the ordered list. The payload
/// hash is computed once at construction so hot probe loops don't re-hash
/// the id list on every shard lookup.
class ParamsKey {
 public:
  ParamsKey();
  // Intentionally implicit: probe sites build keys as ParamsKey{ids}.
  ParamsKey(std::vector<tangle::PayloadId> payloads);  // NOLINT

  static ParamsKey single(tangle::PayloadId id) {
    return ParamsKey(std::vector<tangle::PayloadId>{id});
  }

  const std::vector<tangle::PayloadId>& payloads() const noexcept {
    return payloads_;
  }
  std::uint64_t hash() const noexcept { return hash_; }

  friend bool operator==(const ParamsKey& a, const ParamsKey& b) {
    return a.payloads_ == b.payloads_;
  }

 private:
  std::vector<tangle::PayloadId> payloads_;
  std::uint64_t hash_ = 0;
};

struct EvalOutcome {
  data::EvalResult result;
  bool cache_hit = false;
};

/// One probe in an evaluate_many group. A keyed request participates in the
/// result cache; a keyless request (freshly trained weights with no payload
/// identity) is always evaluated and never cached. `params` must stay valid
/// for the duration of the call.
struct EvalRequest {
  std::span<const float> params;
  std::optional<ParamsKey> key;
};

class EvalEngine {
 public:
  /// `batched_budget_bytes` is the LRU byte budget for retained
  /// BatchedSplits: user validation splits are small and stay resident;
  /// large one-shot pooled-test splits rotate out.
  explicit EvalEngine(nn::ModelFactory factory,
                      std::size_t batched_budget_bytes = 256ull << 20);

  ~EvalEngine();

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  /// RAII lease of a pooled model instance; returns it on destruction.
  class ModelLease {
   public:
    ModelLease(ModelLease&& other) noexcept
        : engine_(other.engine_), model_(std::move(other.model_)) {
      other.engine_ = nullptr;
    }
    ModelLease& operator=(ModelLease&&) = delete;
    ~ModelLease();

    nn::Model& model() noexcept { return *model_; }

   private:
    friend class EvalEngine;
    ModelLease(EvalEngine* engine, std::unique_ptr<nn::Model> model)
        : engine_(engine), model_(std::move(model)) {}

    EvalEngine* engine_;
    std::unique_ptr<nn::Model> model_;
  };

  /// Leases a model from the pool (constructing one only when the pool is
  /// dry). The instance's parameters are unspecified — set_parameters
  /// before use.
  ModelLease acquire();

  /// Gathers `split` into batch tensors, reusing a cached gather when the
  /// same contents were prepared before (keyed by content, so it is safe
  /// to pass temporaries). `split` must be non-empty.
  std::shared_ptr<const BatchedSplit> prepare(const data::DataSplit& split);

  /// Evaluates a probe group: cache hits are resolved up front (first
  /// occurrence of a duplicated key counts as the miss, later ones as hits,
  /// mirroring the serial probe order) and only the misses enter the fused
  /// pass, whose k×batches work grid runs on `pool` (one lane per worker
  /// plus the caller; null runs it serially). outcomes[i] is
  /// bit-identical to probing requests[i] alone, including the hit/miss
  /// flags and counter totals.
  std::vector<EvalOutcome> evaluate_many(std::span<const EvalRequest> requests,
                                         const BatchedSplit& batched,
                                         ThreadPool* pool = nullptr);

  /// evaluate_many over store payloads: requests[i] = (store.get(ids[i]),
  /// ParamsKey::single(ids[i])).
  std::vector<EvalOutcome> payloads_eval_many(
      const tangle::ModelStore& store,
      std::span<const tangle::PayloadId> payloads, const BatchedSplit& batched,
      ThreadPool* pool = nullptr);

  /// Diagnostics (exact; used by tests).
  std::size_t models_created() const;
  std::size_t pool_size() const;
  std::size_t cached_results() const;
  std::size_t cached_splits() const;

 private:
  struct ResultKey {
    ParamsKey params;
    SplitKey split;

    friend bool operator==(const ResultKey&, const ResultKey&) = default;
  };
  struct ResultKeyHash {
    std::size_t operator()(const ResultKey& key) const noexcept;
  };
  struct Shard {
    mutable SharedMutex mutex;
    std::unordered_map<ResultKey, data::EvalResult, ResultKeyHash> results
        TANGLEFL_GUARDED_BY(mutex);
  };
  struct SplitSlot {
    std::shared_ptr<const BatchedSplit> batched;
    std::uint64_t last_used = 0;
  };

  static constexpr std::size_t kShards = 16;

  Shard& shard_for(const ResultKey& key) const;
  bool lookup(const ResultKey& key, data::EvalResult& out) const;
  void insert(const ResultKey& key, const data::EvalResult& result);
  void release(std::unique_ptr<nn::Model> model);
  /// The fused pass: forward-evaluates each of `params` (at least one) over
  /// every batch; result i belongs to params[i]. A stack opening with a
  /// convolution gathers each batch into GEMM panels once for all models.
  std::vector<data::EvalResult> run_grid(
      std::span<const std::span<const float>> params,
      const BatchedSplit& batched, ThreadPool* pool);
  /// Linear scan of the resident splits for `key`; bumps the LRU tick and
  /// reuse counter on a find. Caller must hold split_mutex_.
  std::shared_ptr<const BatchedSplit> find_split(const SplitKey& key)
      TANGLEFL_REQUIRES(split_mutex_);

  // lint:allow(unannotated-guard) immutable after construction
  nn::ModelFactory factory_;
  // lint:allow(unannotated-guard) immutable after construction
  std::size_t batched_budget_bytes_;

  mutable Mutex pool_mutex_;
  std::vector<std::unique_ptr<nn::Model>> pool_
      TANGLEFL_GUARDED_BY(pool_mutex_);
  std::size_t models_created_ TANGLEFL_GUARDED_BY(pool_mutex_) = 0;

  mutable Mutex split_mutex_;
  std::vector<SplitSlot> splits_
      TANGLEFL_GUARDED_BY(split_mutex_);  // LRU by linear scan
  std::size_t split_bytes_ TANGLEFL_GUARDED_BY(split_mutex_) = 0;
  std::uint64_t split_tick_ TANGLEFL_GUARDED_BY(split_mutex_) = 0;

  // lint:allow(unannotated-guard) fixed array allocated in the ctor; each
  // Shard carries its own lock for its contents.
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace tanglefl::core
