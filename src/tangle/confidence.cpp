#include "tangle/confidence.hpp"

#include <algorithm>
#include <bit>

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

ConfidenceWindow compute_confidences(const TangleView& view,
                                     const ViewCacheEntry& cones, Rng& rng,
                                     const ConfidenceConfig& config) {
  obs::TraceScope span("tangle.compute_confidences",
                       &confidence_timing_histogram());
  confidence_run_counter().increment();
  confidence_sample_counter().add(config.sample_rounds);
  // Milestone pruning: the window starts at the frontier, which is in the
  // past cone of every tip, so frozen history below it reads 1.0.
  const std::size_t n = view.size();
  ConfidenceWindow result;
  result.floor = std::min<TxIndex>(view.tangle().prune_floor(), n);
  result.values.assign(n - result.floor, 0.0);
  if (result.values.empty() || config.sample_rounds == 0) return result;

  // Draw every walk in sampling order (the same RNG stream as one walk
  // per sample) and give sample k bit k of its tip's reach row. One
  // descending pass then ORs every approver's row into i's: bit k of
  // reach[i] is set iff i lies in sample k's past cone. A path from a tip
  // down to i never dips below i, so stopping at the floor loses nothing,
  // and the CSR lists in-view approvers only, so masked views need no
  // membership test. An entry rooted below the floor (a prefix view built
  // before the prune) can end a walk below it; that tip's past cone lies
  // wholly in frozen history, so it adds no hit inside the window.
  const TxIndex floor = result.floor;
  const std::size_t words = (config.sample_rounds + 63) / 64;
  std::vector<std::uint64_t> reach(result.values.size() * words, 0);
  for (std::size_t k = 0; k < config.sample_rounds; ++k) {
    const TxIndex tip = random_walk_tip(cones, rng, config.tip_selection);
    if (tip < floor) continue;
    reach[(tip - floor) * words + k / 64] |= std::uint64_t{1} << (k % 64);
  }
  const double inv = 1.0 / static_cast<double>(config.sample_rounds);
  for (TxIndex i = n; i-- > floor;) {
    std::uint64_t* row = &reach[(i - floor) * words];
    for (const TxIndex a : cones.approvers(i)) {
      const std::uint64_t* from = &reach[(a - floor) * words];
      for (std::size_t w = 0; w < words; ++w) row[w] |= from[w];
    }
    int hits = 0;
    for (std::size_t w = 0; w < words; ++w) hits += std::popcount(row[w]);
    result.values[i - floor] = static_cast<double>(hits) * inv;
  }
#if defined(TANGLEFL_DEBUG_CHECKS)
  const auto violations = find_confidence_violations(view, result);
  TANGLEFL_DCHECK_MSG(violations.empty(),
                      violations.empty() ? std::string{} : violations.front());
#endif
  return result;
}

}  // namespace tanglefl::tangle
