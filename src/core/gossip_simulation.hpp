// Gossip-replicated simulation — the distributed-implementation outlook of
// Section VI taken one step further than the asynchronous engine: every
// node maintains its own partial replica of the ledger and learns about
// new transactions only through anti-entropy gossip with a bounded set of
// peers. Training decisions therefore run on genuinely divergent views.
//
// Mechanics per round:
//   1. gossip phase — `gossip_exchanges` rounds of pull-based anti-entropy
//      over a random k-regular-ish peer graph; a pull transfers at most
//      `max_transfer` transactions (oldest first, which keeps every
//      replica ancestor-closed: the solidification rule),
//   2. training phase — a sampled subset of nodes runs Algorithm 2 on its
//      *own replica view*; publishes land in the global ledger and are
//      initially known only to their publisher.
//
// The engine reports replica coverage (how much of the ledger the average
// node knows) next to the usual learning metrics, quantifying how much
// consensus quality degrades under partial views.
#pragma once

#include <vector>

#include "core/engine_core.hpp"

namespace tanglefl::core {

// Honest nodes only, so no AttackConfig. Milestone pruning requires the
// union of all replica tip sets to be covered: a replica lagging at the
// genesis blocks any advance until gossip catches it up, and once the
// frontier moves it is an ancestor of every replica (replicas are
// ancestor-closed), so masked walks rooted at it stay valid. Health is
// probed over the full global ledger — the union of all replicas — so
// orphan/tip series describe the true DAG, not one partial view.
struct GossipConfig : EngineConfig {
  std::size_t rounds = 40;
  std::size_t nodes_per_round = 10;

  std::size_t peers_per_node = 3;      // gossip fanout (random digraph)
  std::size_t gossip_exchanges = 2;    // anti-entropy pulls per round
  std::size_t max_transfer = 64;       // transactions per pull (0 = all)
  double pull_failure = 0.0;           // probability a pull silently fails

  std::size_t eval_every = 5;  // must be > 0
};

struct GossipStats {
  std::size_t published = 0;
  std::size_t failed_pulls = 0;
  double final_mean_coverage = 0.0;  // mean fraction of ledger known
  std::size_t suppressed = 0;        // steps that abstained or failed the gate
  std::size_t pulls = 0;             // successful anti-entropy pulls
};

class GossipSimulation {
 public:
  GossipSimulation(const data::FederatedDataset& dataset,
                   nn::ModelFactory factory, GossipConfig config);

  /// Runs all configured rounds.
  RunResult run();

  /// One gossip + training round (1-based).
  std::size_t run_round(std::uint64_t round);

  /// Evaluates the consensus as seen by a randomly chosen node's replica,
  /// on pooled test data — i.e. what a real participant would measure.
  RoundRecord evaluate(std::uint64_t round);

  /// Mean over nodes of |replica| / |ledger|.
  double mean_coverage() const;

  const tangle::Tangle& tangle() const noexcept { return core_.tangle(); }
  const tangle::ModelStore& store() const noexcept { return core_.store(); }
  const GossipStats& stats() const noexcept { return stats_; }
  const std::vector<std::size_t>& peers(std::size_t node) const {
    return peers_.at(node);
  }

  /// The replica view of one node (ancestor-closed by construction).
  tangle::TangleView replica_view(std::size_t node) const;

 private:
  void pull(std::size_t from, std::size_t to);

  GossipConfig config_;
  EngineCore core_;
  GossipStats stats_;

  std::vector<std::vector<std::size_t>> peers_;  // outgoing pull targets
  std::vector<std::vector<bool>> known_;         // per node, by TxIndex
};

/// Convenience wrapper mirroring run_tangle_learning.
RunResult run_gossip_tangle_learning(const data::FederatedDataset& dataset,
                                     nn::ModelFactory factory,
                                     const GossipConfig& config,
                                     std::string label = "tangle-gossip");

}  // namespace tanglefl::core
