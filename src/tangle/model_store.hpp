// Content-addressed payload store. A real ledger separates transaction
// headers from bulky payloads; here the payloads are flat parameter vectors
// shared by all simulated nodes. Identical payloads (e.g. a model republished
// unchanged) deduplicate to one copy. Thread-safe: reads take a shared lock,
// inserts an exclusive one, so parallel node training can resolve parent
// payloads concurrently.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "nn/params.hpp"
#include "support/sha256.hpp"
#include "support/sync.hpp"
#include "tangle/transaction.hpp"

namespace tanglefl::tangle {

class ModelStore {
 public:
  /// Inserts (or deduplicates) a payload; returns its handle and hash.
  struct AddResult {
    PayloadId id = 0;
    Sha256Digest hash{};
    bool deduplicated = false;
  };
  AddResult add(nn::ParamVector params);

  /// Payload lookup. The returned reference stays valid for the store's
  /// lifetime (payloads are immutable once inserted).
  const nn::ParamVector& get(PayloadId id) const;

  /// Hash recorded for a payload at insertion.
  const Sha256Digest& hash_of(PayloadId id) const;

  std::size_t size() const;

  /// Total floats held by live (unreleased) payloads — O(1); released
  /// payloads contribute nothing.
  std::size_t total_parameters() const;

  /// Bytes of live payload data (total_parameters() * sizeof(float)).
  std::size_t live_bytes() const;

  static Sha256Digest hash_params(std::span<const float> params);

  /// Garbage collection for milestone pruning (tangle/milestones.hpp):
  /// drops a payload's parameters while keeping its id slot and hash, so
  /// frozen transaction headers stay verifiable. The id leaves the dedup
  /// index — re-adding identical params later yields a fresh id. get() on
  /// a released payload throws std::logic_error (a released payload is
  /// referenced only below the prune frontier, which no consumer reads).
  void release(PayloadId id);
  bool is_released(PayloadId id) const;

 private:
  struct Entry {
    nn::ParamVector params;
    Sha256Digest hash{};
    bool released = false;
  };

  mutable SharedMutex mutex_;
  // Deque, not vector: get()/hash_of() hand out references that must stay
  // valid while concurrent add() calls grow the store. A vector would
  // reallocate and dangle them (ThreadSanitizer catches exactly this under
  // tests/test_concurrency_stress.cpp); deque growth never moves existing
  // entries. Handing out those references is the one sanctioned escape of
  // guarded state: entries are append-only and immutable once inserted.
  std::deque<Entry> entries_ TANGLEFL_GUARDED_BY(mutex_);
  // payload hash -> id (live entries only)
  std::unordered_map<Sha256Digest, PayloadId, Sha256DigestHash> by_hash_
      TANGLEFL_GUARDED_BY(mutex_);
  std::size_t live_floats_ TANGLEFL_GUARDED_BY(mutex_) = 0;
};

}  // namespace tanglefl::tangle
