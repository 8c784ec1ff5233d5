#include "tangle/tip_selection.hpp"

#include <algorithm>
#include <bit>
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

// Walk weights exp(alpha * -d) for cone-weight gaps d < kGapTableSize, per
// thread and keyed by alpha's bits. Entries [0, filled) are valid; a walk
// fills the rest on demand. Trivially initialised (alpha 0.0, nothing
// filled), so the first use needs no constructor.
constexpr std::uint32_t kGapTableSize = 1024;

struct GapTable {
  std::uint64_t alpha_bits;
  std::uint32_t filled;
  double weight[kGapTableSize];
};

thread_local GapTable t_gap_table;

/// exp(alpha * -gap) for a gap at or past the table's end. Cold: such gaps
/// are rare (none on a stationary ledger), and keeping the call out of line
/// keeps the walk's draw loop short.
[[gnu::cold, gnu::noinline]] double weight_past_table(double alpha,
                                                      std::uint32_t gap) {
  return std::exp(alpha * -static_cast<double>(gap));
}

/// exp(alpha * -gap): the table entry, filling the table up to `gap` first
/// if needed, or the out-of-line std::exp for gaps past the table.
double gap_weight(GapTable& table, double alpha, std::uint32_t gap) {
  if (gap >= kGapTableSize) return weight_past_table(alpha, gap);
  while (table.filled <= gap) {
    table.weight[table.filled] =
        std::exp(alpha * -static_cast<double>(table.filled));
    ++table.filled;
  }
  return table.weight[gap];
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
  const double alpha = config.alpha;
  GapTable& table = t_gap_table;
  if (table.alpha_bits != std::bit_cast<std::uint64_t>(alpha)) {
    table.alpha_bits = std::bit_cast<std::uint64_t>(alpha);
    table.filled = 0;
  }
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
    // Cone sizes are uint32_t, so w - w_max in double is exactly -(w_max - w)
    // and the gap table returns the bits std::exp would.
    std::uint32_t max_weight = 0;
    for (const TxIndex a : approvers) {
      max_weight = std::max(max_weight, future_cones[a - root]);
    }
    current = approvers[rng.weighted_choice(
        approvers.size(), [&](std::size_t i) {
          return gap_weight(table, alpha,
                            max_weight - future_cones[approvers[i] - root]);
        })];
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
