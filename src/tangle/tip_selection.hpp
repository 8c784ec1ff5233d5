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
//
// The weight of approver a at a branch is exp(alpha * (w_a - w_max)),
// w_max the heaviest sibling's cone size. Cone sizes are uint32_t, so in
// double arithmetic w_a - w_max is exactly -d for the integer gap
// d = w_max - w_a, and the walk reads exp(alpha * -d) from a per-thread
// table of gaps below 1,024 (filled on first use, re-keyed when alpha
// changes) instead of calling std::exp per approver. Every table entry is
// the value std::exp returns for that product (exp(+0) and exp(-0) are
// both 1), so weights, draws and reached tips keep their bits; gaps past
// the table fall back to std::exp. The draw itself is Rng::weighted_choice
// over the weights as they are computed, with no weight buffer.
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
/// Allocation-free.
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
