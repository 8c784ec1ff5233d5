// What the three learning-tangle engines share. The round-based (Section
// IV), asynchronous and gossip engines (Section VI outlook) all run the
// same Algorithm 2 node over the same ledger; only the scheduler differs.
// EngineCore owns the ledger and its services — store, genesis, tangle,
// view cache, eval engine, pruner, payload pipeline, health probe and
// timeline sampler — plus the attack population, and provides the node
// context, attack dispatch, publish path and consensus evaluation. Each
// engine keeps only its scheduler and its own counters.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
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

/// Settings every engine shares.
struct EngineConfig {
  NodeConfig node;

  // Evaluations pool the test data of this fraction of all users, in
  // (0, 1]; the paper validates on a random 10%.
  double eval_nodes_fraction = 0.1;

  std::uint64_t seed = 1;

  // Publish-path payload codec (see tangle/payload_codec.hpp): every
  // published payload is replaced by its canonical decoded form
  // decode(encode(payload)), so the ledger holds exactly the bytes any
  // decoder reconstructs. Every stage defaults off; with only lossless
  // stages on, outputs stay byte-identical to codec-off runs.
  tangle::PayloadCodecConfig codec;

  // Milestone pruning (see tangle/milestones.hpp): at every prune.interval
  // barriers the engine looks for a transaction approved by every tip its
  // scheduler requires, freezes the cone below it, and releases frozen
  // ModelStore payloads. Bounds walk depth and payload memory for long runs
  // at the cost of the documented frozen-history approximations. Disabled
  // (the default), every output stays byte-identical to prior versions.
  tangle::MilestoneConfig prune;

  // Optional per-round time-series sink (see obs/timeline.hpp). When set,
  // the engine probes DAG health (tips, orphans, approval depth,
  // first-approval / confirmation latency) over the full ledger and
  // snapshots registry deltas at every barrier; null keeps all probing
  // off. The pointed-to timeline must outlive the run.
  obs::Timeline* timeline = nullptr;
  tangle::HealthConfig health;
};

/// The attack population (round-based and asynchronous engines).
struct AttackConfig {
  AttackType attack = AttackType::kNone;
  double malicious_fraction = 0.0;  // of all users, in [0, 1]
  data::LabelFlip flip{3, 8};

  // Backdoor attack parameters (attack == kBackdoor).
  data::BackdoorTrigger trigger;
  double backdoor_boost = 3.0;
  double backdoor_data_fraction = 0.5;
};

/// The per-scheduler part of the core's set-up.
struct CoreOptions {
  // Evaluation cadence in the scheduler's unit (rounds or seconds); > 0.
  double eval_every = 1.0;
  std::size_t view_cache_capacity = 4;
  // Not owned. The round pool: builds cache entries, codes the round's
  // publishes and runs the consensus eval's batches at the barrier (null
  // runs all three serially).
  ThreadPool* cone_pool = nullptr;
  // Not owned. Intra-node kernels and node steps' eval grids.
  ThreadPool* kernel_pool = nullptr;
};

/// Throws std::invalid_argument unless eval_every > 0, eval_nodes_fraction
/// lies in (0, 1] and malicious_fraction in [0, 1]. Every engine checks its
/// config here at construction; the FedAvg baseline shares the rules.
void validate_run_config(double eval_every, double eval_nodes_fraction,
                         double malicious_fraction);

class EngineCore {
 public:
  /// Validates the configs (std::invalid_argument on a bad value), lands
  /// the genesis and draws the attack population. The dataset must outlive
  /// the core.
  EngineCore(const data::FederatedDataset& dataset, nn::ModelFactory factory,
             const EngineConfig& config, const AttackConfig& attack,
             const CoreOptions& options);

  const data::FederatedDataset& dataset() const noexcept { return *dataset_; }
  const tangle::Tangle& tangle() const noexcept { return tangle_; }
  const tangle::ModelStore& store() const noexcept { return store_; }
  EvalEngine& eval_engine() noexcept { return eval_engine_; }
  const std::vector<std::size_t>& malicious_users() const noexcept {
    return malicious_users_;
  }

  /// Purpose-keyed stream off the master seed (see core/rng_streams.hpp).
  Rng stream(std::uint64_t key) const noexcept {
    return master_rng_.split(key);
  }

  /// Shared cone cache entry for `view`.
  std::shared_ptr<const tangle::ViewCacheEntry> cones(
      const tangle::TangleView& view);

  /// Context for one node step of `user` at scheduler time `now` (round or
  /// microseconds); `cones` must describe `view`, and both must outlive it.
  /// Safe to call concurrently.
  NodeContext node_context(const tangle::TangleView& view,
                           const tangle::ViewCacheEntry& cones,
                           std::uint64_t now, std::size_t user);

  bool is_malicious(std::size_t user) const noexcept;

  /// Runs one node step with the behavior `user` plays: honest, or the
  /// configured attack when `malicious`. Safe to call concurrently.
  std::optional<PublishRequest> step_node(NodeContext& context,
                                          std::size_t user,
                                          bool malicious) const;

  /// Samples the step of `user` trains and validates on, 0 for a step that
  /// trains nothing (random poison): a round claims its steps in
  /// descending order of this count.
  std::size_t step_samples(std::size_t user, bool malicious) const noexcept;

  /// Publish path, part one: replaces each payload by its canonical codec
  /// form and sets its digest, with the codec's tasks spread over the round
  /// pool (serial without one). Pure, so it may run while nothing commits;
  /// the bytes do not depend on the pool. No-op with the codec off.
  void encode(std::span<PublishRequest* const> publishes) const;
  void encode(PublishRequest& publish) const {
    PublishRequest* const one = &publish;
    encode(std::span<PublishRequest* const>(&one, 1));
  }

  /// Publish path, part two: stores the payload under its digest (hashed
  /// here when the request carries none) and appends the transaction.
  tangle::TxIndex commit(PublishRequest&& publish, std::uint64_t now,
                         const std::string& issuer);

  /// Counts one barrier; true when pruning is on and this one is a
  /// milestone-check point.
  bool prune_due();

  /// Milestone check over the full ledger; `required_tips` defaults to the
  /// ledger's own tip set, and the frontier never passes `floor_limit`.
  void prune(std::optional<std::span<const tangle::TxIndex>> required_tips =
                 std::nullopt,
             std::size_t floor_limit = std::numeric_limits<std::size_t>::max());

  /// Timeline mode only (no-op otherwise): probes DAG health over the full
  /// ledger at time `now`, then samples registry deltas as timeline row
  /// `row`.
  void timeline_barrier(std::uint64_t now, std::uint64_t row);

  void update_ledger_gauge();

  /// Record with the ledger fields (round, size, tips, bytes) filled in.
  RoundRecord start_record(std::uint64_t round);

  /// Stream of the consensus walks over the current full ledger.
  Rng consensus_rng() const noexcept;

  /// Algorithm 1 over `view`.
  ReferenceResult consensus_reference(const tangle::TangleView& view,
                                      Rng rng);

  /// Consensus eval: pools the test data of eval_nodes_fraction users drawn
  /// from `eval_rng`, picks the reference over `view` with `reference_rng`,
  /// and fills accuracy and loss — plus the attack metrics when
  /// `attack_metrics` is set.
  void evaluate_consensus(RoundRecord& record, const tangle::TangleView& view,
                          Rng& eval_rng, Rng reference_rng,
                          bool attack_metrics);

 private:
  const data::FederatedDataset* dataset_;
  nn::ModelFactory factory_;
  EngineConfig config_;
  AttackConfig attack_;
  ThreadPool* cone_pool_;
  ThreadPool* kernel_pool_;
  Rng master_rng_;
  tangle::ModelStore store_;
  tangle::Tangle tangle_;
  tangle::ViewCache view_cache_;
  // Shared loss-probe engine: payload-loss cache, model pool, pre-batched
  // validation splits. All node steps and consensus evals go through it.
  EvalEngine eval_engine_;
  tangle::MilestoneTracker pruner_;
  tangle::PayloadPipeline payload_pipeline_;

  // Timeline mode only; null otherwise so the default path pays nothing.
  std::unique_ptr<tangle::HealthTracker> health_;
  std::unique_ptr<obs::RegistrySampler> timeline_sampler_;

  std::vector<std::size_t> malicious_users_;    // sorted user indices
  std::vector<data::UserData> poisoned_users_;  // parallel, label flip only
};

}  // namespace tanglefl::core
