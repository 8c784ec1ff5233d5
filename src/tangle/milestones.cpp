#include "tangle/milestones.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace tanglefl::tangle {
namespace {

obs::Counter& milestone_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.prune.milestones");
  return counter;
}

obs::Counter& payloads_released_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.prune.payloads_released");
  return counter;
}

obs::Counter& params_released_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.prune.params_released");
  return counter;
}

obs::Gauge& floor_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("tangle.prune.floor");
  return gauge;
}

obs::Gauge& live_window_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("tangle.prune.live_window");
  return gauge;
}

}  // namespace

TxIndex find_milestone(const ViewCacheEntry& cones,
                       std::span<const TxIndex> required_tips,
                       TxIndex current_floor, std::size_t keep_recent,
                       std::size_t max_required_tips) {
  const std::size_t n = cones.view_size();
  const std::size_t tips = required_tips.size();
  if (tips == 0 || tips > max_required_tips) return current_floor;
  // No candidate above the floor can be approved by a tip at or below it
  // (e.g. a gossip replica still stuck at the genesis).
  for (const TxIndex t : required_tips) {
    if (t <= current_floor || t >= n) return current_floor;
  }
  if (n <= keep_recent || n - keep_recent <= current_floor + 1) {
    return current_floor;
  }

  // coverage[i] = bitset of required tips whose reflexive past cone holds
  // i. Tips seed their own bit; one descending pass propagates bits from
  // approvers (children carry every tip that approves them). Only rows in
  // the live region (current_floor, n) ever matter: candidates lie there,
  // and so does every path from a candidate to a tip.
  const std::size_t words = (tips + 63) / 64;
  const TxIndex base = current_floor + 1;
  std::vector<std::uint64_t> coverage((n - base) * words, 0);
  const auto row = [&](TxIndex i) { return coverage.data() + (i - base) * words; };

  std::vector<std::uint32_t> tip_bit(n - base,
                                     std::numeric_limits<std::uint32_t>::max());
  for (std::size_t b = 0; b < tips; ++b) {
    tip_bit[required_tips[b] - base] = static_cast<std::uint32_t>(b);
  }

  const std::uint64_t full_last =
      (tips % 64 == 0) ? ~0ULL : ((1ULL << (tips % 64)) - 1);
  const TxIndex limit = static_cast<TxIndex>(n - keep_recent);  // exclusive
  TxIndex best = current_floor;
  for (TxIndex ii = n; ii > base; --ii) {
    const TxIndex i = ii - 1;
    std::uint64_t* r = row(i);
    for (const TxIndex child : cones.approvers(i)) {
      const std::uint64_t* c = row(child);
      for (std::size_t w = 0; w < words; ++w) r[w] |= c[w];
    }
    const std::uint32_t bit = tip_bit[i - base];
    if (bit != std::numeric_limits<std::uint32_t>::max()) {
      r[bit / 64] |= (1ULL << (bit % 64));
    }
    if (i < limit) {
      bool full = r[words - 1] == full_last;
      for (std::size_t w = 0; full && w + 1 < words; ++w) {
        full = r[w] == ~0ULL;
      }
      if (full) {
        best = i;  // descending scan: the first full row is the largest
        break;
      }
    }
  }
  return best;
}

std::size_t release_frozen_payloads(const Tangle& tangle, ModelStore& store,
                                    TxIndex from) {
  const TxIndex floor = tangle.prune_floor();
  if (from > floor) {
    throw std::invalid_argument(
        "release_frozen_payloads: range starts above the prune floor");
  }
  std::vector<PayloadId> live;  // payloads of the live window
  for (TxIndex i = floor; i < tangle.size(); ++i) {
    live.push_back(tangle.transaction(i).payload);
  }
  std::vector<PayloadId> frozen;  // payloads of the newly frozen range
  for (TxIndex i = from; i < floor; ++i) {
    frozen.push_back(tangle.transaction(i).payload);
  }
  std::sort(live.begin(), live.end());
  std::sort(frozen.begin(), frozen.end());
  frozen.erase(std::unique(frozen.begin(), frozen.end()), frozen.end());
  std::size_t released = 0;  // ascending ids, as a whole-store sweep would
  for (const PayloadId id : frozen) {
    if (!std::binary_search(live.begin(), live.end(), id) &&
        !store.is_released(id)) {
      params_released_counter().add(store.get(id).size());
      store.release(id);
      ++released;
    }
  }
  payloads_released_counter().add(released);
  return released;
}

bool MilestoneTracker::tick() {
  if (!config_.enabled) return false;
  const std::size_t interval = std::max<std::size_t>(1, config_.interval);
  return ++ticks_ % interval == 0;
}

bool MilestoneTracker::advance(Tangle& tangle, ModelStore& store,
                               const ViewCacheEntry& cones,
                               std::span<const TxIndex> required_tips,
                               std::size_t floor_limit) {
  const TxIndex old_floor = tangle.prune_floor();
  TxIndex milestone =
      find_milestone(cones, required_tips, old_floor, config_.keep_recent,
                     config_.max_required_tips);
  milestone = std::min<TxIndex>(milestone, floor_limit);
  if (milestone <= old_floor) return false;
  tangle.set_prune_floor(milestone);
  milestone_counter().increment();
  floor_gauge().set(static_cast<double>(milestone));
  live_window_gauge().set(static_cast<double>(tangle.size() - milestone));
  release_frozen_payloads(tangle, store, old_floor);
  return true;
}

bool MilestoneTracker::advance(Tangle& tangle, ModelStore& store,
                               const ViewCacheEntry& cones) {
  return advance(tangle, store, cones, cones.tips());
}

}  // namespace tanglefl::tangle
