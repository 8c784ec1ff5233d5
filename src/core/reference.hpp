// Algorithm 1: choosing the reference (consensus) model from the tangle.
// Every transaction is scored by confidence(t) * rating(t); the
// highest-priority transaction's payload is the consensus model. As a
// smoothing variation, the top-n payloads can be averaged (Section III-A),
// which Table II probes as "# transactions chosen as reference model".
#pragma once

#include <span>
#include <vector>

#include "nn/params.hpp"
#include "support/rng.hpp"
#include "tangle/confidence.hpp"
#include "tangle/model_store.hpp"
#include "tangle/tangle.hpp"

namespace tanglefl::core {

struct ReferenceConfig {
  std::size_t num_reference_models = 1;  // top-n payloads to average
  tangle::ConfidenceConfig confidence;
};

struct ReferenceResult {
  // Transactions in descending priority order (as many as were averaged).
  std::vector<tangle::TxIndex> transactions;
  // Store payload ids of those transactions, in the same order. Together
  // they identify `params` exactly (payloads are content-deduplicated), so
  // evaluation results on the averaged model can be cached by this list.
  std::vector<tangle::PayloadId> payloads;
  // Averaged payload of those transactions.
  nn::ParamVector params;
};

/// Indices of the `take` highest-priority entries, in descending
/// (priority, index) order — ties resolve to the newest (highest) index.
/// O(V + k log k) via nth_element instead of a full priority queue.
/// Exposed for the regression test against the heap-based selection.
std::vector<tangle::TxIndex> top_priority_indices(
    std::span<const double> priorities, std::size_t take);

/// Runs Algorithm 1 over `view`, scoring against the shared cone cache
/// entry `cones` (see tangle/view_cache.hpp), which must describe exactly
/// `view`. The view always contains at least the genesis transaction, so a
/// result always exists.
ReferenceResult choose_reference(const tangle::TangleView& view,
                                 const tangle::ModelStore& store,
                                 const tangle::ViewCacheEntry& cones, Rng& rng,
                                 const ReferenceConfig& config);

}  // namespace tanglefl::core
