// Tip selection: a weighted random walk from the genesis transaction
// towards the tips, moving opposite the direction of approvals
// (Section II-C). At each step the walk picks one of the current
// transaction's approvers with probability proportional to
// exp(alpha * cumulative_weight), the IOTA MCMC transition rule; alpha is
// the "randomness factor" the robustness of the tangle depends on
// (Section V-B, [32]). alpha = 0 degenerates to an unbiased random walk,
// large alpha to a deterministic heaviest-subtangle descent.
//
// As in the paper's prototype, walks always start at genesis rather than at
// a depth-windowed particle (Section IV). Walks run over a prebuilt cone
// cache entry (tangle/view_cache.hpp), which carries the cumulative
// weights, tip set and approver lists of one view.
#pragma once

#include <vector>

#include "support/rng.hpp"
#include "tangle/tangle.hpp"

namespace tanglefl::tangle {

class ViewCacheEntry;

enum class TipSelectionMethod {
  kWeightedWalk,  // MCMC walk biased by cumulative weight (IOTA default)
  kUniform,       // uniform random tip selection (URTS, [18] in the paper)
};

struct TipSelectionConfig {
  TipSelectionMethod method = TipSelectionMethod::kWeightedWalk;
  double alpha = 0.01;  // walk bias towards heavier branches
};

/// One weighted random walk over the view `cones` describes, from its root
/// (the prune frontier, or the genesis); returns the reached tip.
/// Allocation-free apart from the per-walk weight buffer.
TxIndex random_walk_tip(const ViewCacheEntry& cones, Rng& rng,
                        const TipSelectionConfig& config);

/// Runs `count` independent walks and returns the reached tips (duplicates
/// possible — two walks may end at the same tip, and the paper allows the
/// two chosen tips to coincide). Under kUniform each draw is a uniform
/// member of the entry's tip set.
std::vector<TxIndex> select_tips(const ViewCacheEntry& cones,
                                 std::size_t count, Rng& rng,
                                 const TipSelectionConfig& config);

}  // namespace tanglefl::tangle
