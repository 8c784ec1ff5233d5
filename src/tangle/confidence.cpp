#include "tangle/confidence.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "tangle/invariants.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::tangle {
namespace {

obs::Counter& confidence_run_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.confidence.runs");
  return counter;
}

obs::Counter& confidence_sample_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.confidence.sample_walks");
  return counter;
}

obs::Histogram& confidence_timing_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "tangle.confidence_us", obs::BucketLayout::exponential(4.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

}  // namespace

std::vector<double> compute_confidences(const TangleView& view,
                                        const ViewCacheEntry& cones, Rng& rng,
                                        const ConfidenceConfig& config) {
  obs::TraceScope span("tangle.compute_confidences",
                       &confidence_timing_histogram());
  confidence_run_counter().increment();
  confidence_sample_counter().add(config.sample_rounds);
  std::vector<double> confidence(view.size(), 0.0);
  if (view.size() == 0 || config.sample_rounds == 0) return confidence;

  std::vector<std::uint32_t> hits(view.size(), 0);
  std::vector<TxIndex> stack;
  std::vector<bool> seen(view.size());
  // Milestone pruning: the DFS never descends below the frontier, and
  // everything beneath it is pinned to confidence 1.0 afterwards — the
  // frontier is in the past cone of every tip, so frozen history is
  // confirmed by construction. floor == 0 (pruning off) changes nothing.
  const TxIndex floor = view.tangle().prune_floor();

  for (std::size_t round = 0; round < config.sample_rounds; ++round) {
    const TxIndex tip = random_walk_tip(cones, rng, config.tip_selection);
    // Mark the tip's entire (live) past cone as hit this round.
    std::fill(seen.begin(), seen.end(), false);
    stack.assign(1, tip);
    seen[tip] = true;
    while (!stack.empty()) {
      const TxIndex current = stack.back();
      stack.pop_back();
      ++hits[current];
      if (current == view.tangle().genesis()) continue;
      for (const TxIndex p : view.tangle().parent_indices(current)) {
        if (p >= floor && !seen[p]) {
          seen[p] = true;
          stack.push_back(p);
        }
      }
    }
  }

  const double inv = 1.0 / static_cast<double>(config.sample_rounds);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    confidence[i] = static_cast<double>(hits[i]) * inv;
  }
  for (TxIndex i = 0; i < floor && i < confidence.size(); ++i) {
    confidence[i] = 1.0;
  }
#if defined(TANGLEFL_DEBUG_CHECKS)
  const auto violations = find_confidence_violations(view, confidence);
  TANGLEFL_DCHECK_MSG(violations.empty(),
                      violations.empty() ? std::string{} : violations.front());
#endif
  return confidence;
}

std::vector<double> compute_ratings(const ViewCacheEntry& cones) {
  const std::span<const std::uint32_t> past = cones.past_cone_sizes();
  std::vector<double> ratings(past.size());
  for (std::size_t i = 0; i < past.size(); ++i) {
    ratings[i] = static_cast<double>(past[i]);
  }
  return ratings;
}

}  // namespace tanglefl::tangle
