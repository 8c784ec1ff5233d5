// Event-driven asynchronous simulation — the Section VI outlook item: the
// round barrier of Section IV exists only to ease comparison with FedAvg;
// a deployed learning tangle is asynchronous. Here nodes wake according to
// independent Poisson processes, train for a sampled duration, and publish
// into a ledger whose visibility respects network propagation delay and
// message loss:
//
//   * a node starting to train at time t sees exactly the transactions
//     published at or before t - network_delay,
//   * a finished transaction enters the ledger at its publish time,
//   * each publish is lost with probability publish_loss.
//
// Transactions are appended in publish-time order, so the prefix-view
// machinery of the round-based engine carries over unchanged: the `round`
// field of a transaction stores its publish time in microseconds.
#pragma once

#include <cstdint>

#include "core/engine_core.hpp"

namespace tanglefl::core {

struct AsyncSimulationConfig : EngineConfig, AttackConfig {
  double duration_seconds = 60.0;      // simulated wall-clock horizon
  double wake_rate_per_node = 0.2;     // Poisson rate [1/s] per node
  double mean_training_seconds = 1.0;  // exponential training duration
  double network_delay_seconds = 0.5;  // propagation delay to all peers
  double publish_loss = 0.0;           // probability a publish never lands

  double attack_start_seconds = 0.0;
  double eval_every_seconds = 10.0;  // must be > 0

  // Milestone pruning is checked at evaluation instants and clamped so the
  // frontier never outruns the slowest in-flight view horizon. Timeline
  // rows are keyed by whole simulated seconds and sampled at every
  // evaluation instant. Ledger time here is microseconds, so
  // HealthConfig::orphan_age is overridden from health_orphan_age_seconds.
  double health_orphan_age_seconds = 5.0;
};

struct AsyncStats {
  std::size_t wakeups = 0;            // node training sessions started
  std::size_t published = 0;          // transactions that landed
  std::size_t lost = 0;               // publishes dropped by the network
  std::size_t abstained = 0;          // training finished, no improvement
  std::size_t in_flight = 0;          // still propagating at the horizon
};

class AsyncTangleSimulation {
 public:
  AsyncTangleSimulation(const data::FederatedDataset& dataset,
                        nn::ModelFactory factory,
                        AsyncSimulationConfig config);

  /// Runs the event loop over the full horizon; the returned history has
  /// one record per evaluation instant (RoundRecord::round holds whole
  /// simulated seconds).
  RunResult run();

  const tangle::Tangle& tangle() const noexcept { return core_.tangle(); }
  const tangle::ModelStore& store() const noexcept { return core_.store(); }
  const AsyncStats& stats() const noexcept { return stats_; }

  /// Consensus accuracy as seen at simulated time `now`.
  RoundRecord evaluate(double now);

 private:
  AsyncSimulationConfig config_;
  EngineCore core_;
  AsyncStats stats_;
};

/// Convenience wrapper mirroring run_tangle_learning.
RunResult run_async_tangle_learning(const data::FederatedDataset& dataset,
                                    nn::ModelFactory factory,
                                    const AsyncSimulationConfig& config,
                                    std::string label = "tangle-async");

}  // namespace tanglefl::core
