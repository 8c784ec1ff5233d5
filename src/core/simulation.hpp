// Round-based simulation engine for the learning tangle (Section IV).
// Training is organized in rounds: a subset of nodes participates per
// round, transactions published in round r become visible in round r+1,
// and a fraction of nodes can be declared malicious from a configurable
// attack-start round onward. Node steps within a round run in parallel on a
// thread pool, the payload codec of their publishes then runs on the same
// pool, and the round barrier commits the publishes in slot order;
// determinism is preserved because every step derives its randomness from
// (seed, round, slot).
#pragma once

#include <memory>
#include <vector>

#include "core/engine_core.hpp"
#include "support/thread_pool.hpp"

namespace tanglefl::core {

struct SimulationConfig : EngineConfig, AttackConfig {
  std::size_t rounds = 50;
  // Also the confidence sample rounds of the reference and of health
  // probes: the simulation overrides both with it (paper, Sec. IV).
  std::size_t nodes_per_round = 10;

  // Evaluation cadence; the paper validates every 20 training rounds on
  // the test data of a random 10% of all nodes. Must be > 0.
  std::size_t eval_every = 5;

  std::uint64_t attack_start_round = 0;  // rounds >= this run the attack

  std::size_t threads = 1;  // worker threads for per-round node training

  // Worker threads for the intra-node NN kernels (GEMM/conv row
  // partitioning). 0 or 1 runs kernels serially inside each node step —
  // the right default when `threads` already saturates the machine.
  // Results are bit-identical for any value.
  std::size_t kernel_threads = 0;
};

class TangleSimulation {
 public:
  /// The dataset and factory must outlive the simulation. Throws
  /// std::invalid_argument on an invalid config.
  TangleSimulation(const data::FederatedDataset& dataset,
                   nn::ModelFactory factory, SimulationConfig config);

  /// Runs all configured rounds; returns the evaluation history.
  RunResult run();

  /// Advances one round (rounds are 1-based; call with consecutive values).
  /// Returns the number of transactions published this round.
  std::size_t run_round(std::uint64_t round);

  /// Evaluates the current consensus model on pooled test data of a random
  /// node subset, as the paper does between training rounds.
  RoundRecord evaluate(std::uint64_t round);

  const tangle::Tangle& tangle() const noexcept { return core_.tangle(); }
  const tangle::ModelStore& store() const noexcept { return core_.store(); }
  const std::vector<std::size_t>& malicious_users() const noexcept {
    return core_.malicious_users();
  }

  /// Shared evaluation engine (loss cache + model pool), exposed for tests.
  EvalEngine& eval_engine() noexcept { return core_.eval_engine(); }

 private:
  SimulationConfig config_;
  ThreadPool pool_;
  // Intra-node kernel pool, shared by all node steps (parallel_for is safe
  // to call from concurrent node steps). Null when kernel_threads <= 1.
  std::unique_ptr<ThreadPool> kernel_pool_;
  EngineCore core_;

  double last_publish_rate_ = 0.0;
  // Accumulated every round, so evaluate() reports complete publish series
  // even when eval_every samples only a subset of rounds.
  std::uint64_t published_total_ = 0;
  std::uint64_t suppressed_total_ = 0;
};

/// Convenience wrapper: construct, run, and label a simulation.
RunResult run_tangle_learning(const data::FederatedDataset& dataset,
                              nn::ModelFactory factory,
                              const SimulationConfig& config,
                              std::string label = "tangle");

}  // namespace tanglefl::core
