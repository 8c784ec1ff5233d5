// Round-based simulation engine for the learning tangle (Section IV).
// Training is organized in rounds: a subset of nodes participates per
// round, transactions published in round r become visible in round r+1,
// and a fraction of nodes can be declared malicious from a configurable
// attack-start round onward. Node steps within a round, each followed by
// the payload codec of its publish, run in parallel on a thread pool, and
// the round barrier commits the publishes in slot order; determinism is
// preserved because every step derives its randomness from (seed, round,
// slot).
#pragma once

#include <memory>
#include <vector>

#include "core/eval_engine.hpp"
#include "core/metrics.hpp"
#include "core/node.hpp"
#include "data/poison.hpp"
#include "obs/timeline.hpp"
#include "support/thread_pool.hpp"
#include "tangle/health.hpp"
#include "tangle/milestones.hpp"
#include "tangle/payload_codec.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::core {

enum class AttackType {
  kNone,
  kRandomPoison,  // Fig. 5: N(0,1) parameter transactions
  kLabelFlip,     // Fig. 6: source-class samples labeled as target class
  kBackdoor,      // Section VI outlook: boosted trigger-patch backdoor [29]
};

struct SimulationConfig {
  std::size_t rounds = 50;
  std::size_t nodes_per_round = 10;

  // Evaluation cadence; the paper validates every 20 training rounds on
  // the test data of a random 10% of all nodes.
  std::size_t eval_every = 5;
  double eval_nodes_fraction = 0.1;

  NodeConfig node;

  AttackType attack = AttackType::kNone;
  double malicious_fraction = 0.0;
  std::uint64_t attack_start_round = 0;  // rounds >= this run the attack
  data::LabelFlip flip{3, 8};

  // Backdoor attack parameters (attack == kBackdoor).
  data::BackdoorTrigger trigger;
  double backdoor_boost = 3.0;
  double backdoor_data_fraction = 0.5;

  std::uint64_t seed = 1;
  std::size_t threads = 1;  // worker threads for per-round node training

  // Worker threads for the intra-node NN kernels (GEMM/conv row
  // partitioning). 0 or 1 runs kernels serially inside each node step —
  // the right default when `threads` already saturates the machine.
  // Results are bit-identical for any value.
  std::size_t kernel_threads = 0;

  // Share one cone cache entry per round view across all participants
  // instead of recomputing cumulative weights per node. Results are
  // bit-identical either way; disable only to measure the redundant
  // recompute cost (see tangle/view_cache.hpp).
  bool use_view_cache = true;

  // Cache loss-probe results across probes and rounds in the shared eval
  // engine (see core/eval_engine.hpp). Losses are pure functions of
  // (params, split), so outputs are byte-identical either way; disable
  // only to measure the redundant re-evaluation cost.
  bool use_eval_cache = true;
  // Batched multi-model candidate probes (EvalEngineConfig::use_batched):
  // off replays the exact per-probe serial path. Outputs are byte-identical
  // either way.
  bool use_eval_batch = true;

  // Paper: "we set the number of sampling rounds for establishing the
  // consensus and for selecting the parent tips for training equal to the
  // number of active nodes per round". When true, confidence sampling
  // rounds are forced to nodes_per_round (health probes included).
  bool auto_confidence_samples = true;

  // Publish-path payload codec (see tangle/payload_codec.hpp): every
  // published payload is replaced by its canonical decoded form
  // decode(encode(payload)), so the ledger holds exactly the bytes any
  // decoder reconstructs, and codec.chunk switches the ModelStore to
  // content-defined chunk dedup. Every stage defaults off; with only
  // lossless stages on, outputs stay byte-identical to codec-off runs.
  tangle::PayloadCodecConfig codec;

  // Milestone pruning (see tangle/milestones.hpp): at every prune.interval
  // round barriers the engine looks for a transaction approved by every
  // current tip, freezes the cone below it, and releases frozen ModelStore
  // payloads. Bounds walk depth and payload memory for long runs at the
  // cost of the documented frozen-history approximations. Requires
  // use_view_cache (walk roots ride on cache entries); disabled (the
  // default), every output stays byte-identical to prior versions.
  tangle::MilestoneConfig prune;

  // Optional per-round time-series sink (see obs/timeline.hpp). When set,
  // the engine probes DAG health (tips, orphans, approval depth,
  // first-approval / confirmation latency) and snapshots registry deltas
  // at every round barrier; null keeps all probing off. The pointed-to
  // timeline must outlive the run.
  obs::Timeline* timeline = nullptr;
  tangle::HealthConfig health;
};

class TangleSimulation {
 public:
  /// The dataset and factory must outlive the simulation.
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

  const tangle::Tangle& tangle() const noexcept { return tangle_; }
  const tangle::ModelStore& store() const noexcept { return store_; }
  const std::vector<std::size_t>& malicious_users() const noexcept {
    return malicious_users_;
  }

  /// Consensus parameters right now (Algorithm 1 over the full ledger).
  nn::ParamVector consensus_params();

  /// Shared evaluation engine (loss cache + model pool), exposed for tests.
  EvalEngine& eval_engine() noexcept { return eval_engine_; }

 private:
  bool attack_active(std::uint64_t round) const noexcept;
  bool is_malicious(std::size_t user) const noexcept;

  /// Runs one participant's node step with the behavior its user plays
  /// this round (honest, or the configured attack).
  std::optional<PublishRequest> step_node(NodeContext& context,
                                          std::size_t user_index,
                                          bool malicious) const;

  /// Runs the DAG health probe over the full ledger (timeline mode only).
  void probe_health(std::uint64_t round);

  /// Full Algorithm 1 result over the current ledger (transactions,
  /// payload ids, averaged params) — consensus_params() returns its params.
  ReferenceResult consensus_reference();

  const data::FederatedDataset* dataset_;
  nn::ModelFactory factory_;
  SimulationConfig config_;
  Rng master_rng_;
  tangle::ModelStore store_;
  tangle::Tangle tangle_;
  ThreadPool pool_;
  // Intra-node kernel pool, shared by all node steps (parallel_for is safe
  // to call from concurrent node steps). Null when kernel_threads <= 1.
  std::unique_ptr<ThreadPool> kernel_pool_;
  // Round views are strict prefixes that grow monotonically, so a couple
  // of slots cover the live round view plus the full eval view.
  tangle::ViewCache view_cache_{4};
  // Shared loss-probe engine: payload-loss cache, model pool, pre-batched
  // validation splits. All node steps and round-record evals go through it.
  EvalEngine eval_engine_;
  tangle::MilestoneTracker pruner_;
  // Publish-path codec driver; pass-through when no wire stage is on.
  tangle::PayloadPipeline payload_pipeline_{config_.codec};

  // Timeline mode (config_.timeline != nullptr) only; null otherwise so
  // the default path pays nothing for the probes.
  std::unique_ptr<tangle::HealthTracker> health_;
  std::unique_ptr<obs::RegistrySampler> timeline_sampler_;

  std::vector<std::size_t> malicious_users_;    // sorted user indices
  std::vector<data::UserData> poisoned_users_;  // parallel to malicious_users_

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
