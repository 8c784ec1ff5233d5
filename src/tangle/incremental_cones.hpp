// Incrementally maintained cone state (the scaling layer under the view
// cache). The BitMatrix reachability pass of ViewCacheEntry::build costs
// O(n^2/64) bits of scratch per view — ~1.25 GB at 100k transactions —
// which caps simulations at thousands of transactions. But the tangle is
// append-only and engines serve monotonically growing prefix views, so the
// two cone-size vectors can be *maintained* instead of re-derived:
//
//   * past cone sizes are append-stable — appending transaction j never
//     changes past(i) for i < j, so past_[j] is computed once, by a single
//     parent-DFS over j's own past cone;
//   * future cone sizes grow by exactly one for every distinct ancestor of
//     an appended transaction — the same DFS bumps future_[a] as it visits.
//
// Cost per append is O(|past cone of j|) with O(n) words of persistent
// state, versus O(n^2/64) scratch bits per rebuild. With milestone pruning
// (tangle/milestones.hpp) the DFS additionally stops at the prune frontier,
// bounding per-append cost by the live window instead of ledger age.
//
// Frontier semantics under pruning (floor = Tangle::prune_floor() at the
// time of the append): the DFS never descends below the floor and
//   past_[j] = floor + |{ancestors of j with index >= floor}|,
// i.e. the frozen region [0, floor) is counted wholesale. This is exact
// when the appended transaction's cone covers the whole frozen region
// (which the milestone rule targets: the floor is in the past cone of
// every tip) and otherwise over-counts by the number of frozen orphans —
// the documented "frozen history is fully confirmed" approximation.
// future_ entries below the floor go stale: ViewCacheEntry::build_incremental
// copies only the window at and above the floor, so they are never copied
// into an entry and never read. With pruning disabled the floor is 0 and
// every value is exact — identical to the BitMatrix pass bit for bit.
//
// Not thread-safe; the owning ViewCache serializes access under its mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tangle/tangle.hpp"

namespace tanglefl::tangle {

class IncrementalConeState {
 public:
  /// Number of leading transactions whose cones are folded in.
  std::size_t processed() const noexcept { return processed_; }

  /// Cone sizes over the processed prefix, indexed by TxIndex.
  std::span<const std::uint32_t> past_cone_sizes() const noexcept {
    return past_;
  }
  std::span<const std::uint32_t> future_cone_sizes() const noexcept {
    return future_;
  }

  /// Folds transactions [processed(), count) into the state with one
  /// frontier DFS each (see file comment). `count` must not exceed
  /// tangle.size(); counts at or below processed() are a no-op. The caller
  /// must always pass the same Tangle instance (reset() to rebind).
  void advance_to(const Tangle& tangle, std::size_t count);

  /// Drops all state (used when the owner rebinds to another Tangle).
  void reset();

  /// Heap footprint of the maintained state — the number the 100k smoke
  /// run tracks to show cone memory stays O(n) words, not O(n^2/64) bits.
  std::size_t memory_bytes() const noexcept;

 private:
  std::size_t processed_ = 0;
  std::vector<std::uint32_t> past_;
  std::vector<std::uint32_t> future_;
  // DFS scratch: epoch-stamped visited marks avoid an O(n) clear per
  // append; the stack is reused across appends.
  std::vector<std::uint32_t> mark_;
  std::vector<TxIndex> stack_;
  std::uint32_t epoch_ = 0;
};

}  // namespace tanglefl::tangle
