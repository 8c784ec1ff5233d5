// Consensus confidence (Section III-A): the confidence of a transaction is
// estimated by running tip selection many times and counting how often the
// transaction is (directly or indirectly) approved by the sampled tip —
// i.e. how often it lies in the sampled tip's past cone. Dividing the hit
// count by the number of sampling rounds yields a value in [0, 1].
#pragma once

#include <vector>

#include "support/rng.hpp"
#include "tangle/tangle.hpp"
#include "tangle/tip_selection.hpp"

namespace tanglefl::tangle {

struct ConfidenceConfig {
  std::size_t sample_rounds = 35;  // paper sets this to nodes-per-round
  TipSelectionConfig tip_selection;
};

class ViewCacheEntry;

/// Per-transaction confidence over `view`, indexed by TxIndex. The walks
/// run over `cones`, which must describe exactly `view`.
std::vector<double> compute_confidences(const TangleView& view,
                                        const ViewCacheEntry& cones, Rng& rng,
                                        const ConfidenceConfig& config);

/// Per-transaction rating (Section III-A): the number of transactions each
/// one directly or indirectly approves — the entry's past cone sizes. In
/// IOTA transactions may contribute in different degrees depending on
/// proof-of-work hardness; here all transactions contribute equally,
/// matching the paper's prototype.
std::vector<double> compute_ratings(const ViewCacheEntry& cones);

}  // namespace tanglefl::tangle
