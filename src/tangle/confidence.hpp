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

/// Confidences over a view's live window [floor, size()). Frozen history
/// below the prune floor is in the past cone of every tip, so it is
/// confirmed by construction and reads 1.0 without being stored.
struct ConfidenceWindow {
  TxIndex floor = 0;
  std::vector<double> values;  // values[i - floor] for i in [floor, size())

  std::size_t size() const noexcept { return floor + values.size(); }
  double operator[](TxIndex index) const {
    return index < floor ? 1.0 : values[index - floor];
  }
};

/// Per-transaction confidence over `view`, windowed at the tangle's prune
/// floor. The walks run over `cones`, which must describe exactly `view`.
ConfidenceWindow compute_confidences(const TangleView& view,
                                     const ViewCacheEntry& cones, Rng& rng,
                                     const ConfidenceConfig& config);

}  // namespace tanglefl::tangle
