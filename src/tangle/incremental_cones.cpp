#include "tangle/incremental_cones.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace tanglefl::tangle {
namespace {

obs::Counter& appended_counter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "tangle.cones.incremental.appended");
  return counter;
}

obs::Gauge& state_bytes_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("tangle.cones.incremental.bytes");
  return gauge;
}

}  // namespace

void IncrementalConeState::advance_to(const Tangle& tangle,
                                      std::size_t count) {
  TANGLEFL_DCHECK(count <= tangle.size());
  if (count <= processed_) return;
  appended_counter().add(count - processed_);
  const TxIndex floor = tangle.prune_floor();
  past_.resize(count, 0);
  future_.resize(count, 0);
  if (mark_.size() < count) mark_.resize(count, 0);

  for (TxIndex j = processed_; j < count; ++j) {
    if (j == 0) continue;  // genesis: empty past cone
    if (++epoch_ == 0) {
      // Epoch counter wrapped; invalidate all stale marks once.
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
    stack_.clear();
    for (const TxIndex p : tangle.parent_indices(j)) {
      if (p < floor || mark_[p] == epoch_) continue;
      mark_[p] = epoch_;
      stack_.push_back(p);
    }
    std::uint32_t visited = 0;
    while (!stack_.empty()) {
      const TxIndex a = stack_.back();
      stack_.pop_back();
      ++visited;
      future_[a] += 1;
      if (a == 0) continue;  // genesis self-parent would loop
      for (const TxIndex p : tangle.parent_indices(a)) {
        if (p < floor || mark_[p] == epoch_) continue;
        mark_[p] = epoch_;
        stack_.push_back(p);
      }
    }
    // Frozen region counted wholesale — see file comment in the header.
    past_[j] = static_cast<std::uint32_t>(floor) + visited;
  }
  processed_ = count;
  state_bytes_gauge().set(static_cast<double>(memory_bytes()));
}

void IncrementalConeState::reset() {
  processed_ = 0;
  past_.clear();
  future_.clear();
  mark_.clear();
  stack_.clear();
  epoch_ = 0;
}

std::size_t IncrementalConeState::memory_bytes() const noexcept {
  return (past_.capacity() + future_.capacity() + mark_.capacity()) *
             sizeof(std::uint32_t) +
         stack_.capacity() * sizeof(TxIndex);
}

}  // namespace tanglefl::tangle
