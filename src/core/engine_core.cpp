#include "core/engine_core.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/rng_streams.hpp"
#include "obs/metrics.hpp"

namespace tanglefl::core {
void validate_run_config(double eval_every, double eval_nodes_fraction,
                         double malicious_fraction) {
  // Negated comparisons so NaN is rejected too.
  if (!(eval_every > 0.0)) {
    throw std::invalid_argument("run config: eval cadence must be > 0");
  }
  if (!(eval_nodes_fraction > 0.0 && eval_nodes_fraction <= 1.0)) {
    throw std::invalid_argument(
        "run config: eval_nodes_fraction must lie in (0, 1]");
  }
  if (!(malicious_fraction >= 0.0 && malicious_fraction <= 1.0)) {
    throw std::invalid_argument(
        "run config: malicious_fraction must lie in [0, 1]");
  }
}

EngineCore::EngineCore(const data::FederatedDataset& dataset,
                       nn::ModelFactory factory, const EngineConfig& config,
                       const AttackConfig& attack, const CoreOptions& options)
    : dataset_(&dataset),
      factory_(std::move(factory)),
      config_(config),
      attack_(attack),
      cone_pool_(options.cone_pool),
      kernel_pool_(options.kernel_pool),
      master_rng_(config.seed),
      tangle_([&] {
        // Genesis payload: a randomly initialized model every node starts
        // from.
        nn::Model model = factory_();
        Rng genesis_rng = master_rng_.split(streams::kGenesis);
        model.init(genesis_rng);
        const auto added = store_.add(model.get_parameters());
        return tangle::Tangle(added.id, added.hash);
      }()),
      view_cache_(options.view_cache_capacity),
      eval_engine_(factory_),
      pruner_(config.prune),
      payload_pipeline_(config.codec) {
  validate_run_config(options.eval_every, config_.eval_nodes_fraction,
                      attack_.malicious_fraction);
  if (config_.timeline != nullptr) {
    health_ = std::make_unique<tangle::HealthTracker>(config_.health);
    timeline_sampler_ = std::make_unique<obs::RegistrySampler>();
  }

  // Declare a fixed random subset of users malicious.
  const std::size_t num_users = dataset_->num_users();
  const auto malicious_count = static_cast<std::size_t>(
      attack_.malicious_fraction * static_cast<double>(num_users) + 0.5);
  if (malicious_count == 0 || attack_.attack == AttackType::kNone) return;
  Rng rng = master_rng_.split(streams::kMalicious);
  malicious_users_ = rng.sample_without_replacement(num_users, malicious_count);
  std::sort(malicious_users_.begin(), malicious_users_.end());
  if (attack_.attack == AttackType::kLabelFlip) {
    poisoned_users_.reserve(malicious_users_.size());
    for (const std::size_t u : malicious_users_) {
      poisoned_users_.push_back(
          data::make_label_flip_user(dataset_->user(u), attack_.flip));
    }
  }
}

std::shared_ptr<const tangle::ViewCacheEntry> EngineCore::cones(
    const tangle::TangleView& view) {
  return view_cache_.get(view, cone_pool_);
}

NodeContext EngineCore::node_context(const tangle::TangleView& view,
                                     const tangle::ViewCacheEntry& cones,
                                     std::uint64_t now, std::size_t user) {
  Rng rng = master_rng_.split(streams::kNode).split(now).split(user + 1);
  return NodeContext{view, cones, store_, factory_, eval_engine_, now, rng,
                     kernel_pool_};
}

bool EngineCore::is_malicious(std::size_t user) const noexcept {
  return std::binary_search(malicious_users_.begin(), malicious_users_.end(),
                            user);
}

std::optional<PublishRequest> EngineCore::step_node(NodeContext& context,
                                                    std::size_t user,
                                                    bool malicious) const {
  const data::UserData& data = dataset_->user(user);
  if (!malicious) return HonestNode(config_.node).step(context, data);
  switch (attack_.attack) {
    case AttackType::kRandomPoison:
      return RandomPoisonNode(config_.node).step(context, data);
    case AttackType::kLabelFlip: {
      const auto it = std::lower_bound(malicious_users_.begin(),
                                       malicious_users_.end(), user);
      return LabelFlipNode(config_.node)
          .step(context, poisoned_users_[static_cast<std::size_t>(
                             it - malicious_users_.begin())]);
    }
    case AttackType::kBackdoor:
      return BackdoorNode(config_.node, attack_.trigger, attack_.backdoor_boost,
                          attack_.backdoor_data_fraction)
          .step(context, data);
    case AttackType::kNone:
      break;
  }
  return std::nullopt;
}

std::size_t EngineCore::step_samples(std::size_t user,
                                     bool malicious) const noexcept {
  if (malicious && attack_.attack == AttackType::kRandomPoison) return 0;
  return dataset_->user(user).total_samples();
}

void EngineCore::encode(std::span<PublishRequest* const> publishes) const {
  if (!payload_pipeline_.active()) return;
  std::vector<tangle::PipelinePublish> batch;
  batch.reserve(publishes.size());
  for (PublishRequest* publish : publishes) {
    batch.push_back({&publish->params, publish->parents, nullptr,
                     &publish->digest.emplace()});
  }
  payload_pipeline_.process(batch, tangle_, store_, cone_pool_);
}

tangle::TxIndex EngineCore::commit(PublishRequest&& publish, std::uint64_t now,
                                   const std::string& issuer) {
  const auto added =
      publish.digest ? store_.add(std::move(publish.params), *publish.digest)
                     : store_.add(std::move(publish.params));
  return tangle_.add_transaction(publish.parents, added.id, added.hash, now,
                                 issuer);
}

bool EngineCore::prune_due() {
  return config_.prune.enabled && pruner_.tick();
}

void EngineCore::prune(
    std::optional<std::span<const tangle::TxIndex>> required_tips,
    std::size_t floor_limit) {
  const std::shared_ptr<const tangle::ViewCacheEntry> full =
      cones(tangle_.view());
  pruner_.advance(tangle_, store_, *full, required_tips.value_or(full->tips()),
                  floor_limit);
}

void EngineCore::timeline_barrier(std::uint64_t now, std::uint64_t row) {
  if (config_.timeline == nullptr) return;
  const tangle::TangleView full = tangle_.view();
  // Dedicated stream: probing must never perturb simulation randomness, so
  // timeline runs stay bit-identical to probe-free runs.
  Rng rng = master_rng_.split(streams::kHealth).split(now);
  health_->sample(full, *cones(full), now, rng);
  timeline_sampler_->sample(*config_.timeline, row);
}

void EngineCore::update_ledger_gauge() {
  obs::MetricsRegistry::global().gauge("sim.ledger_bytes").set(
      static_cast<double>(store_.live_bytes()));
}

RoundRecord EngineCore::start_record(std::uint64_t round) {
  RoundRecord record;
  record.round = round;
  record.tangle_size = tangle_.size();
  record.tip_count = cones(tangle_.view())->tips().size();
  record.ledger_bytes = store_.live_bytes();
  update_ledger_gauge();
  return record;
}

Rng EngineCore::consensus_rng() const noexcept {
  // kConsensus, not kEval: consensus walks and eval-user sampling used to
  // share the kEval root, colliding whenever the ledger size equals the
  // round (see core/rng_streams.hpp).
  return master_rng_.split(streams::kConsensus).split(tangle_.size());
}

ReferenceResult EngineCore::consensus_reference(const tangle::TangleView& view,
                                                Rng rng) {
  return choose_reference(view, store_, *cones(view), rng,
                          config_.node.reference);
}

void EngineCore::evaluate_consensus(RoundRecord& record,
                                    const tangle::TangleView& view,
                                    Rng& eval_rng, Rng reference_rng,
                                    bool attack_metrics) {
  const std::size_t num_users = dataset_->num_users();
  const auto eval_users = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.eval_nodes_fraction *
                                      static_cast<double>(num_users) +
                                  0.5));
  const std::vector<std::size_t> users =
      eval_rng.sample_without_replacement(num_users, eval_users);
  const data::DataSplit pooled = dataset_->pooled_test(users);
  if (pooled.empty()) return;

  // The pooled split is batched once per eval, the models come from the
  // pool, and the (reference payload list, split) result caches — a repeat
  // eval of an unchanged consensus on the same users costs no forwards.
  // Its batches run on the round pool, which is idle at this barrier (the
  // async and gossip engines have none and run them serially).
  const ReferenceResult reference = consensus_reference(view, reference_rng);
  const std::shared_ptr<const BatchedSplit> prepared =
      eval_engine_.prepare(pooled);
  const EvalRequest request{reference.params, ParamsKey{reference.payloads}};
  const data::EvalResult eval =
      eval_engine_
          .evaluate_many(std::span<const EvalRequest>(&request, 1), *prepared,
                         cone_pool_)
          .front()
          .result;
  record.accuracy = eval.accuracy;
  record.loss = eval.loss;
  if (!attack_metrics) return;
  // The attack metrics run direct forwards over transformed inputs, so they
  // need a concrete model instance carrying the reference weights.
  EvalEngine::ModelLease lease = eval_engine_.acquire();
  lease.model().set_parameters(reference.params);
  record.target_misclassification = data::targeted_misclassification_rate(
      lease.model(), pooled, attack_.flip.source_class,
      attack_.flip.target_class);
  if (attack_.attack == AttackType::kBackdoor) {
    record.backdoor_success =
        data::backdoor_success_rate(lease.model(), pooled, attack_.trigger);
  }
}

}  // namespace tanglefl::core
