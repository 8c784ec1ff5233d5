// Participating-node behaviours. HonestNode implements Algorithm 2 (basic
// model training and parameter validation) together with the robust tip
// selection extension of Section III-E; the malicious behaviours implement
// the two poisoning attacks evaluated in Section V-B.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/reference.hpp"
#include "data/dataset.hpp"
#include "data/training.hpp"
#include "nn/model.hpp"
#include "nn/privacy.hpp"
#include "support/rng.hpp"
#include "tangle/model_store.hpp"
#include "tangle/tangle.hpp"
#include "tangle/tip_selection.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::core {

class BatchedSplit;
class EvalEngine;

/// Per-node algorithm parameters (the hyperparameters of Table II plus the
/// training configuration of Table I).
struct NodeConfig {
  // Number of tips whose models are averaged and approved ("# tips (n)").
  std::size_t num_tips = 2;
  // Number of candidate tips drawn by repeated tip selection ("sample
  // size"). Values above num_tips enable the Section III-E defence: each
  // candidate is validated on local data and only the best num_tips are
  // used. Clamped up to num_tips.
  std::size_t tip_sample_size = 2;
  ReferenceConfig reference;
  tangle::TipSelectionConfig tip_selection;
  data::TrainConfig training;

  // Section VI outlook: bias the random walk by local model performance
  // (see core/biased_walk.hpp). When enabled, walk transitions multiply in
  // exp(-walk_loss_beta * local_loss), steering nodes with similar data
  // toward shared sub-tangles.
  bool use_biased_walk = false;
  double walk_loss_beta = 1.0;

  // Section III-D: publish DP-sanitized parameters (Gaussian mechanism on
  // the update relative to the averaged parent base).
  bool use_dp = false;
  nn::DpConfig dp;

  // Section III-C: publish 8-bit-quantized payloads (lossy compression of
  // the full parameter vector on the wire).
  bool quantize_payloads = false;
};

/// What a node wants to publish at the end of its round.
struct PublishRequest {
  std::vector<tangle::TxIndex> parents;  // approved transactions
  nn::ParamVector params;                // new model payload
  // ModelStore::hash_params(params) of the final payload, when the engine
  // computed it off the commit path; commit hashes the payload otherwise.
  std::optional<Sha256Digest> digest = std::nullopt;
};

/// Read-only view of the world a node sees during its training round, plus
/// its private random stream. Borrows everything; the caller keeps the
/// referents alive for the step.
struct NodeContext {
  const tangle::TangleView& view;
  // Shared per-view cone cache entry for `view` (see tangle/view_cache.hpp):
  // every walk, confidence and rating query of the step reads it.
  const tangle::ViewCacheEntry& cones;
  const tangle::ModelStore& store;
  const nn::ModelFactory& factory;
  // Shared evaluation engine (core/eval_engine.hpp): every loss probe of
  // the step goes through it.
  EvalEngine& eval;
  std::uint64_t round = 0;
  Rng rng;
  // Optional intra-node pool for local-training kernels. Row-partitioned,
  // so the published parameters are bit-identical for any pool size. Not
  // owned; null trains serially.
  ThreadPool* kernel_pool = nullptr;
};

class NodeBehavior {
 public:
  virtual ~NodeBehavior() = default;

  /// One training-round step. Returns the transaction to publish, or
  /// nullopt when the node abstains (e.g. no improvement over the
  /// reference model).
  virtual std::optional<PublishRequest> step(NodeContext& context,
                                             const data::UserData& user) = 0;

  virtual bool is_malicious() const noexcept { return false; }
};

/// Algorithm 2 with the Section III-E robust tip selection.
class HonestNode final : public NodeBehavior {
 public:
  explicit HonestNode(NodeConfig config) : config_(std::move(config)) {}

  std::optional<PublishRequest> step(NodeContext& context,
                                     const data::UserData& user) override;

  /// Picks the tips to average: draws `tip_sample_size` candidates by
  /// random walk; if more candidates than `num_tips` are drawn, keeps the
  /// `num_tips` whose payloads score the lowest loss on `prepared`, the
  /// engine-batched validation split (null when the split is empty).
  /// Exposed for unit tests.
  std::vector<tangle::TxIndex> choose_parents(
      NodeContext& context,
      const std::shared_ptr<const BatchedSplit>& prepared);

 private:
  NodeConfig config_;
};

/// Indiscriminate attack (Fig. 5): publishes parameters drawn from a
/// standard normal distribution whenever chosen for a round, attaching to
/// regular random-walk tips so the poison enters the consensus structure.
class RandomPoisonNode final : public NodeBehavior {
 public:
  explicit RandomPoisonNode(NodeConfig config) : config_(std::move(config)) {}

  std::optional<PublishRequest> step(NodeContext& context,
                                     const data::UserData& user) override;

  bool is_malicious() const noexcept override { return true; }

 private:
  NodeConfig config_;
};

/// Targeted label-flipping attack (Fig. 6): behaves exactly like an honest
/// node, but its local dataset consists solely of source-class samples
/// labeled as the target class, so its "improvements" push the model
/// toward the targeted misclassification. The poisoned dataset is prepared
/// by the simulation; this behaviour simply runs Algorithm 2 on it and
/// skips the publish gate when its own (poisoned) validation set is empty.
class LabelFlipNode final : public NodeBehavior {
 public:
  explicit LabelFlipNode(NodeConfig config)
      : honest_(std::move(config)) {}

  std::optional<PublishRequest> step(NodeContext& context,
                                     const data::UserData& poisoned_user) override;

  bool is_malicious() const noexcept override { return true; }

 private:
  HonestNode honest_;
};

/// Backdoor (model replacement) attack — the "different classes of
/// poisoning attacks" the paper's Section VI calls for, after Bagdasaryan
/// et al. [29]: the attacker trains on a mix of clean and trigger-stamped
/// samples (stealth: clean accuracy is preserved), then *boosts* its
/// update by a scale factor so the backdoor survives averaging, and
/// publishes unconditionally.
class BackdoorNode final : public NodeBehavior {
 public:
  BackdoorNode(NodeConfig config, data::BackdoorTrigger trigger,
               double boost = 3.0, double poison_fraction = 0.5)
      : config_(std::move(config)),
        trigger_(trigger),
        boost_(boost),
        poison_fraction_(poison_fraction) {}

  std::optional<PublishRequest> step(NodeContext& context,
                                     const data::UserData& user) override;

  bool is_malicious() const noexcept override { return true; }

 private:
  NodeConfig config_;
  data::BackdoorTrigger trigger_;
  double boost_;
  double poison_fraction_;
};

}  // namespace tanglefl::core
