// Shared per-view cone/topology cache.
//
// Tip selection, confidence sampling, and Algorithm 1's priority queue all
// need the same derived quantities over a view: past-cone sizes (ratings),
// future-cone sizes (cumulative weights), the tip set, and the in-view
// approver lists every walk step traverses. Before this cache each
// participant of a round recomputed all of them independently — ~3 full
// O(n^2/64) BitMatrix passes per participant per round over the *same*
// shared view prefix, plus a fresh std::vector allocation per walk step in
// TangleView::approvers().
//
// ViewCacheEntry computes everything once per view, over the live window
// [root(), view_size()) above the prune floor only, so it costs O(window),
// not O(ledger), under milestone pruning (root() is 0 with pruning off):
//   * past/future cone size vectors (one bitset-reachability pass each,
//     optionally parallelized over 64-bit word blocks on a ThreadPool —
//     the word-sliced recurrence row[i] |= row[parent] is independent per
//     word column, so the fill partitions perfectly and the popcount
//     reduction is a deterministic integer sum),
//   * the tip set, and
//   * a flat CSR adjacency snapshot of in-view approver lists, so a walk
//     step is a span lookup instead of a filtered vector allocation.
// No consensus query reads below the floor; the health probe reads frozen
// rows from Tangle::approvers.
//
// ViewCache is a small keyed LRU of entries:
//   * keying — a view's identity is (prefix count) for prefix views and
//     (count, member count, membership hash + exact packed-mask compare)
//     for masked views; a masked view that covers its whole prefix
//     normalizes to the prefix key, so converged gossip replicas share
//     entries.
//   * invalidation — the tangle is append-only and entries only describe
//     in-view structure, so an entry can never go stale: add_transaction
//     grows the ledger, which changes the *key* of every view that sees
//     the new transaction (its prefix count or membership differs) and
//     leaves old identities untouched. Invalidation is by construction;
//     the cache additionally resets itself if it ever sees a different
//     Tangle instance.
//   * thread-safety — get() takes an internal mutex and may block to
//     build; entries are immutable after construction and shared via
//     shared_ptr, so any number of threads may *read* a returned entry
//     concurrently. Do not call get() from inside a ThreadPool worker of
//     the pool passed to it (the parallel fill would run inline).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/check.hpp"
#include "support/sync.hpp"
#include "tangle/incremental_cones.hpp"
#include "tangle/tangle.hpp"

namespace tanglefl {
class ThreadPool;
}

namespace tanglefl::tangle {

/// Immutable snapshot of everything consensus queries need from one view.
class ViewCacheEntry {
 public:
  /// Computes all derived quantities for `view`. When `pool` is non-null
  /// and the view is large enough, the cone fills are parallelized over
  /// word blocks; results are bit-identical regardless of thread count.
  static std::shared_ptr<const ViewCacheEntry> build(
      const TangleView& view, ThreadPool* pool = nullptr);

  /// Delta build for prefix(-equivalent) views: advances `state` to
  /// view.size() — folding in only the transactions appended since the
  /// previous build — and copies the window of its cone vectors instead of
  /// running the O(n^2/64) BitMatrix pass. With pruning disabled the result
  /// is bit-identical to build(); under pruning the ratings carry the
  /// approximation documented in tangle/incremental_cones.hpp. The caller
  /// must guarantee state.processed() <= view.size() and that the view is
  /// prefix-equivalent (member_count() == size()).
  static std::shared_ptr<const ViewCacheEntry> build_incremental(
      const TangleView& view, IncrementalConeState& state);

  /// Upper bound of member indices (== TangleView::size()).
  std::size_t view_size() const noexcept { return count_; }

  /// Number of transactions each window transaction directly or indirectly
  /// approves (the rating of Algorithm 1), indexed by TxIndex - root().
  std::span<const std::uint32_t> past_cone_sizes() const noexcept {
    return past_;
  }

  /// Number of in-view transactions directly or indirectly approving each
  /// window transaction (the cumulative weight steering the random walk),
  /// indexed by TxIndex - root().
  std::span<const std::uint32_t> future_cone_sizes() const noexcept {
    return future_;
  }

  /// Window transactions with no approver inside the view, ascending.
  std::span<const TxIndex> tips() const noexcept { return tips_; }

  /// Direct approvers of `index` inside the view, ascending — the same
  /// sequence TangleView::approvers() returns, without the allocation.
  /// `index` must lie in the window [root(), view_size()): the CSR offset
  /// table has one row per window transaction plus one, so any other index
  /// would read garbage (not noexcept — the debug-build bounds check throws
  /// CheckFailure).
  std::span<const TxIndex> approvers(TxIndex index) const {
    TANGLEFL_DCHECK(index >= root_ && index < count_);
    const std::size_t row = index - root_;
    return std::span<const TxIndex>(edges_).subspan(
        offsets_[row], offsets_[row + 1] - offsets_[row]);
  }

  /// Walk root and window start recorded at build time: the tangle's prune
  /// frontier (0 with pruning off, i.e. the genesis; never above
  /// view_size()). Tip-selection walks over this entry start here, never
  /// descending into frozen history.
  TxIndex root() const noexcept { return root_; }

 private:
  ViewCacheEntry() = default;

  /// CSR + tip-set fill shared by both builders.
  void fill_topology(const TangleView& view);

  TxIndex root_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint32_t> past_;     // one per window transaction
  std::vector<std::uint32_t> future_;   // one per window transaction
  std::vector<TxIndex> tips_;
  std::vector<std::uint32_t> offsets_;  // window + 1 CSR row offsets
  std::vector<TxIndex> edges_;          // flat in-view approver lists
};

/// Keyed LRU cache of ViewCacheEntry, shared by all participants of a
/// round. One instance per engine (and per Tangle).
class ViewCache {
 public:
  /// Misses on monotonically growing prefix views take the delta build
  /// (ViewCacheEntry::build_incremental); masked and shrinking views fall
  /// back to the full BitMatrix build.
  explicit ViewCache(std::size_t capacity = 8) : capacity_(capacity) {}

  /// Returns the entry for `view`, building it on a miss. Hits and misses
  /// are counted in the tangle.view_cache.{hit,miss} metrics.
  std::shared_ptr<const ViewCacheEntry> get(const TangleView& view,
                                            ThreadPool* pool = nullptr);

  /// Drops every cached entry (outstanding shared_ptrs stay valid). The
  /// incremental cone state survives — it describes the tangle, not the
  /// entries.
  void clear();

  std::size_t size() const;

 private:
  struct Slot {
    std::size_t count = 0;
    std::size_t members = 0;
    std::uint64_t mask_hash = 0;
    // Packed membership bits for exact verification on hash match; empty
    // for prefix(-equivalent) views.
    std::vector<std::uint64_t> mask_words;
    std::shared_ptr<const ViewCacheEntry> entry;
    std::uint64_t last_used = 0;
  };

  mutable Mutex mutex_;
  std::vector<Slot> slots_ TANGLEFL_GUARDED_BY(mutex_);
  std::uint64_t tick_ TANGLEFL_GUARDED_BY(mutex_) = 0;
  const Tangle* tangle_ TANGLEFL_GUARDED_BY(mutex_) = nullptr;
  IncrementalConeState cone_state_ TANGLEFL_GUARDED_BY(mutex_);
  const std::size_t capacity_;  // lint:allow(unannotated-guard) immutable
};

}  // namespace tanglefl::tangle
