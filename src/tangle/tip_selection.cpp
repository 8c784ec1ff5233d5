#include "tangle/tip_selection.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::tangle {
namespace {

// Walk statistics the paper's analyses (Kuśmierz et al., Popov et al.) are
// framed in: how many walks ran, how long each was, and how often a step had
// several approvers to bias between. Pure counts — deterministic for a
// given seed and config.
obs::Counter& walk_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.tip_walk.count");
  return counter;
}

obs::Histogram& walk_length_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "tangle.tip_walk.length", obs::BucketLayout::exponential(1.0, 2.0, 14));
  return hist;
}

obs::Counter& walk_branch_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.tip_walk.branch_steps");
  return counter;
}

obs::Counter& uniform_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.tip_walk.uniform_count");
  return counter;
}

/// Uniform draw from a precomputed tip set (URTS hot path).
TxIndex uniform_from(std::span<const TxIndex> tips, Rng& rng) {
  uniform_counter().increment();
  if (tips.empty()) return 0;  // genesis
  return tips[rng.uniform_index(tips.size())];
}

}  // namespace

TxIndex random_walk_tip(const ViewCacheEntry& cones, Rng& rng,
                        const TipSelectionConfig& config) {
  walk_counter().increment();
  // The prune frontier when milestone pruning is active (the milestone is
  // in the past cone of every tip, so rooting here reaches the same tip
  // set); index 0 == Tangle::genesis() otherwise. Cone sizes start there.
  const std::span<const std::uint32_t> future_cones =
      cones.future_cone_sizes();
  const TxIndex root = cones.root();
  TxIndex current = root;
  std::vector<double> weights;
  std::uint64_t steps = 0;
  std::uint64_t branch_steps = 0;
  for (;;) {
    const std::span<const TxIndex> approvers = cones.approvers(current);
    if (approvers.empty()) {
      // reached a tip
      walk_length_histogram().record(static_cast<double>(steps));
      walk_branch_counter().add(branch_steps);
      return current;
    }
    ++steps;
    if (approvers.size() == 1) {
      current = approvers.front();
      continue;
    }
    ++branch_steps;
    // exp(alpha * (w - w_max)) keeps the weights in (0, 1] for stability.
    std::uint32_t max_weight = 0;
    for (const TxIndex a : approvers) {
      max_weight = std::max(max_weight, future_cones[a - root]);
    }
    weights.clear();
    for (const TxIndex a : approvers) {
      weights.push_back(std::exp(
          config.alpha * (static_cast<double>(future_cones[a - root]) -
                          static_cast<double>(max_weight))));
    }
    current = approvers[rng.weighted_choice(weights)];
  }
}

std::vector<TxIndex> select_tips(const ViewCacheEntry& cones,
                                 std::size_t count, Rng& rng,
                                 const TipSelectionConfig& config) {
  std::vector<TxIndex> tips;
  tips.reserve(count);
  if (config.method == TipSelectionMethod::kUniform) {
    for (std::size_t i = 0; i < count; ++i) {
      tips.push_back(uniform_from(cones.tips(), rng));
    }
    return tips;
  }
  for (std::size_t i = 0; i < count; ++i) {
    tips.push_back(random_walk_tip(cones, rng, config));
  }
  return tips;
}

}  // namespace tanglefl::tangle
