// DAG health probes (timeline layer): per-sample tip/orphan statistics,
// approval-depth distribution, and per-transaction time-to-first-approval /
// time-to-confirmation, published as registry metrics so the timeline
// sampler turns them into per-round series.
//
// Time units follow the owning engine: rounds for the synchronous and
// gossip engines, microseconds for the asynchronous engine (transaction
// `round` fields store publish time there). `HealthConfig::orphan_age` is
// expressed in those same units.
//
// A HealthTracker is stateful — it remembers which transactions have
// already had their first approval or confirmation recorded, so each event
// is observed exactly once. One tracker per engine run; sample() must be
// called from a deterministic context (round barrier / event loop), never
// from pool workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "tangle/confidence.hpp"
#include "tangle/tangle.hpp"

namespace tanglefl::tangle {

class ViewCacheEntry;

struct HealthConfig {
  /// A tip older than this (in engine time units) counts as an orphan:
  /// past the age where honest tip selection would plausibly still pick it.
  std::uint64_t orphan_age = 5;
  /// Confidence at or above this marks a transaction confirmed.
  double confirmation_threshold = 0.5;
  /// Walk budget for the confirmation estimate.
  ConfidenceConfig confidence;
  /// Confirmation tracking runs confidence walks each sample; disable to
  /// keep probes O(N + E) when confirmation latency is not needed.
  bool track_confirmation = true;
};

/// One probe of the DAG. Tip/orphan/depth fields describe the whole view;
/// the delay vectors list only events newly observed by this sample.
struct HealthSample {
  std::size_t tangle_size = 0;  // in-view transaction count
  std::size_t tip_count = 0;
  std::size_t orphan_count = 0;
  double orphan_rate = 0.0;  // orphans / non-genesis in-view transactions
  /// Approval depth of a transaction: 0 for tips, else 1 + the maximum
  /// depth among its in-view approvers — the height of the future cone.
  double approval_depth_mean = 0.0;
  std::uint64_t approval_depth_max = 0;
  double approval_depth_p50 = 0.0;
  double approval_depth_p90 = 0.0;
  /// Transactions ever confirmed (confidence >= threshold), cumulative.
  std::size_t confirmed_count = 0;
  /// now - publish time for transactions first approved / confirmed since
  /// the previous sample (engine time units).
  std::vector<std::uint64_t> first_approval_delays;
  std::vector<std::uint64_t> confirmation_delays;
};

class HealthTracker {
 public:
  explicit HealthTracker(HealthConfig config);

  /// Probes `view` at time `now`; `cones` must describe exactly `view`.
  /// `rng` drives the confirmation confidence walks and must come from a
  /// dedicated stream so probing never perturbs simulation randomness.
  HealthSample sample(const TangleView& view, const ViewCacheEntry& cones,
                      std::uint64_t now, Rng& rng);

  const HealthConfig& config() const noexcept { return config_; }

 private:
  HealthConfig config_;
  std::vector<bool> approval_recorded_;
  std::vector<bool> confirmed_;
};

}  // namespace tanglefl::tangle
