// Milestone-style checkpointing: freezes the cone below a *confirmed
// milestone* and prunes confirmed history out of the walk space.
//
// A transaction M qualifies as a milestone when it lies in the reflexive
// past cone of EVERY required tip (for the round/async engines the current
// tip set; for gossip the union of all replica tip sets). Advancing the
// prune frontier (Tangle::set_prune_floor) to M then guarantees:
//
//   * every tip has index > M, so rooting tip-selection / biased walks at
//     M instead of the genesis reaches exactly the same tip set — every
//     walkable path from M stays inside the live window [M, n);
//   * every future attachment approves M transitively (its parents are
//     tips reached from M), so the frontier can keep advancing;
//   * confidence of frozen transactions is pinned to 1.0 — M is approved
//     by every tip, and everything below M is treated as confirmed
//     history (tangle/confidence.cpp skips the descent);
//   * ModelStore payloads referenced only by frozen transactions are dead
//     to every consumer (walk loss probes and Algorithm 1 stay in the live
//     window) and can be released. An advance releases those of the newly
//     frozen range [old floor, new floor) no live transaction references;
//     that equals a sweep of the whole store because every ModelStore::add
//     is followed at once by add_transaction.
//
// The frontier trades exactness below the milestone for bounded state:
// ratings count the frozen region wholesale (orphans below the floor are
// treated as confirmed — see tangle/incremental_cones.hpp) and future
// cones below the floor go stale (view-cache entries hold only the window
// above it). With pruning disabled (the default) nothing changes anywhere,
// byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "tangle/model_store.hpp"
#include "tangle/tangle.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::tangle {

struct MilestoneConfig {
  bool enabled = false;

  // Every `interval`-th MilestoneTracker::tick() is a milestone-check
  // point (engines tick once per round barrier / evaluation instant).
  std::size_t interval = 8;

  // The newest `keep_recent` transactions are never frozen; this is the
  // live window walks, confidence sampling, and Algorithm 1 operate on.
  // Must comfortably exceed num_reference_models and the per-round tip
  // churn so consensus never runs out of live candidates.
  std::size_t keep_recent = 256;

  // Coverage-pass bail-out: with more required tips than this the check
  // is skipped (the bitset pass is O(window * tips / 64)).
  std::size_t max_required_tips = 1024;
};

/// Largest index m with current_floor < m, m + keep_recent < n (n =
/// cones.view_size()) that lies in the reflexive past cone of every
/// required tip; returns current_floor when none qualifies. One descending
/// tip-coverage bitset pass over the live region of the full-ledger entry,
/// whose root must not lie above current_floor.
TxIndex find_milestone(const ViewCacheEntry& cones,
                       std::span<const TxIndex> required_tips,
                       TxIndex current_floor, std::size_t keep_recent,
                       std::size_t max_required_tips = 1024);

/// Releases every ModelStore payload referenced by a transaction in
/// [from, prune floor) and by none at or above the floor (see the file
/// comment). Returns the number of payloads released; throws
/// std::invalid_argument when `from` lies above the floor.
std::size_t release_frozen_payloads(const Tangle& tangle, ModelStore& store,
                                    TxIndex from);

/// Engine-side driver: owns the check cadence and the prune metrics.
class MilestoneTracker {
 public:
  explicit MilestoneTracker(MilestoneConfig config) : config_(config) {}

  const MilestoneConfig& config() const noexcept { return config_; }

  /// Counts one barrier/evaluation instant; true when this one is a
  /// milestone-check point (every config().interval ticks).
  bool tick();

  /// Runs the milestone check against the full-ledger entry: finds the
  /// best milestone covered by `required_tips`, advances the tangle's
  /// prune frontier (never past `floor_limit`), and releases dead
  /// payloads. Returns true when the frontier advanced. Publishes the
  /// tangle.prune.* metrics.
  bool advance(Tangle& tangle, ModelStore& store, const ViewCacheEntry& cones,
               std::span<const TxIndex> required_tips,
               std::size_t floor_limit = std::numeric_limits<std::size_t>::max());

  /// Convenience overload: required tips are the entry's own tip set (the
  /// round-based and asynchronous engines, where every walkable view is a
  /// prefix of the full ledger).
  bool advance(Tangle& tangle, ModelStore& store,
               const ViewCacheEntry& cones);

 private:
  MilestoneConfig config_;
  std::uint64_t ticks_ = 0;
};

}  // namespace tanglefl::tangle
