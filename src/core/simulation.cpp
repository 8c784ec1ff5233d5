#include "core/simulation.hpp"

#include <algorithm>
#include <cassert>

#include "core/rng_streams.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace tanglefl::core {
namespace {

// Engine-level publish accounting: every round contributes (not only eval
// rounds), so the publish/suppress series is complete.
obs::Counter& rounds_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("sim.rounds");
  return counter;
}

obs::Counter& published_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("sim.published");
  return counter;
}

obs::Counter& published_malicious_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("sim.published.malicious");
  return counter;
}

obs::Counter& suppressed_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("sim.suppressed");
  return counter;
}

obs::Gauge& ledger_bytes_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("sim.ledger_bytes");
  return gauge;
}

nn::ParamVector make_genesis_params(const nn::ModelFactory& factory,
                                    Rng rng) {
  nn::Model model = factory();
  model.init(rng);
  return model.get_parameters();
}

EvalEngineConfig eval_engine_config(bool use_cache, bool use_batched) {
  EvalEngineConfig config;
  config.use_cache = use_cache;
  config.use_batched = use_batched;
  return config;
}

}  // namespace

TangleSimulation::TangleSimulation(const data::FederatedDataset& dataset,
                                   nn::ModelFactory factory,
                                   SimulationConfig config)
    : dataset_(&dataset),
      factory_(std::move(factory)),
      config_(config),
      master_rng_(config.seed),
      store_(),
      tangle_([&] {
        // Chunking must be configured before the first payload lands.
        if (config.codec.chunk) {
          store_.configure_chunking(tangle::ChunkParams{});
        }
        // Genesis payload: a randomly initialized model every node starts
        // from.
        const auto added = store_.add(make_genesis_params(
            factory_, master_rng_.split(streams::kGenesis)));
        return tangle::Tangle(added.id, added.hash);
      }()),
      pool_(std::max<std::size_t>(1, config.threads)),
      kernel_pool_(config.kernel_threads > 1
                       ? std::make_unique<ThreadPool>(config.kernel_threads)
                       : nullptr),
      eval_engine_(factory_,
                   eval_engine_config(config.use_eval_cache,
                                      config.use_eval_batch)),
      pruner_(config.prune) {
  if (config_.auto_confidence_samples) {
    config_.node.reference.confidence.sample_rounds = config_.nodes_per_round;
    config_.health.confidence.sample_rounds = config_.nodes_per_round;
  }
  if (config_.timeline != nullptr) {
    health_ = std::make_unique<tangle::HealthTracker>(config_.health);
    timeline_sampler_ = std::make_unique<obs::RegistrySampler>();
  }

  // Declare a fixed random subset of users malicious.
  const std::size_t num_users = dataset_->num_users();
  const auto malicious_count = static_cast<std::size_t>(
      config_.malicious_fraction * static_cast<double>(num_users) + 0.5);
  if (malicious_count > 0 && config_.attack != AttackType::kNone) {
    Rng rng = master_rng_.split(streams::kMalicious);
    malicious_users_ =
        rng.sample_without_replacement(num_users, malicious_count);
    std::sort(malicious_users_.begin(), malicious_users_.end());
    if (config_.attack == AttackType::kLabelFlip) {
      poisoned_users_.reserve(malicious_users_.size());
      for (const std::size_t u : malicious_users_) {
        poisoned_users_.push_back(
            data::make_label_flip_user(dataset_->user(u), config_.flip));
      }
    }
  }
}

bool TangleSimulation::attack_active(std::uint64_t round) const noexcept {
  return config_.attack != AttackType::kNone &&
         round >= config_.attack_start_round && !malicious_users_.empty();
}

bool TangleSimulation::is_malicious(std::size_t user) const noexcept {
  return std::binary_search(malicious_users_.begin(), malicious_users_.end(),
                            user);
}

void TangleSimulation::probe_health(std::uint64_t round) {
  const tangle::TangleView view = tangle_.view();
  const std::shared_ptr<const tangle::ViewCacheEntry> cones =
      config_.use_view_cache ? view_cache_.get(view, &pool_) : nullptr;
  // Dedicated stream: probing must never perturb simulation randomness, so
  // timeline runs stay bit-identical to probe-free runs.
  Rng rng = master_rng_.split(streams::kHealth).split(round);
  health_->sample(view, cones.get(), round, rng);
}

std::optional<PublishRequest> TangleSimulation::step_node(
    NodeContext& context, std::size_t user_index, bool malicious) const {
  const data::UserData& user = dataset_->user(user_index);
  if (!malicious) return HonestNode(config_.node).step(context, user);
  switch (config_.attack) {
    case AttackType::kRandomPoison:
      return RandomPoisonNode(config_.node).step(context, user);
    case AttackType::kLabelFlip: {
      const auto it = std::lower_bound(malicious_users_.begin(),
                                       malicious_users_.end(), user_index);
      const auto offset =
          static_cast<std::size_t>(it - malicious_users_.begin());
      return LabelFlipNode(config_.node).step(context, poisoned_users_[offset]);
    }
    case AttackType::kBackdoor:
      return BackdoorNode(config_.node, config_.trigger,
                          config_.backdoor_boost,
                          config_.backdoor_data_fraction)
          .step(context, user);
    case AttackType::kNone:
      break;
  }
  return std::nullopt;
}

std::size_t TangleSimulation::run_round(std::uint64_t round) {
  obs::TraceScope span("sim.round");
  // Samples registry deltas into the timeline when the round body closes,
  // after the health probe below has refreshed the health gauges.
  std::optional<obs::RoundScope> round_scope;
  if (config_.timeline != nullptr) {
    round_scope.emplace(*timeline_sampler_, *config_.timeline, round);
  }
  assert(round >= 1);
  const std::size_t num_users = dataset_->num_users();
  const std::size_t participants =
      std::min(config_.nodes_per_round, num_users);

  Rng selection_rng = master_rng_.split(streams::kParticipant).split(round);
  const std::vector<std::size_t> chosen =
      selection_rng.sample_without_replacement(num_users, participants);

  const tangle::TangleView view =
      tangle_.view_prefix(tangle_.visible_count_for_round(round));
  // One cone computation for the whole round, shared read-only by every
  // participant, instead of one per node step.
  const std::shared_ptr<const tangle::ViewCacheEntry> cones =
      config_.use_view_cache ? view_cache_.get(view, &pool_) : nullptr;
  const bool attacking = attack_active(round);

  struct SlotResult {
    std::optional<PublishRequest> publish;
    bool malicious = false;
  };
  std::vector<SlotResult> results(participants);

  pool_.parallel_for(participants, [&](std::size_t slot) {
    SlotResult& result = results[slot];
    const std::size_t user_index = chosen[slot];
    result.malicious = attacking && is_malicious(user_index);
    NodeContext context{view, store_, factory_, round,
                        master_rng_.split(streams::kNode)
                            .split(round)
                            .split(user_index + 1),
                        cones, kernel_pool_.get(), &eval_engine_};
    result.publish = step_node(context, user_index, result.malicious);
    // The whole codec step runs here in the lane: the delta base comes from
    // parents in the round's prefix view, which nothing mutates before the
    // barrier, and encode/decode are pure, so the canonical payload does not
    // depend on which lane computes it.
    if (result.publish) {
      result.publish->params = payload_pipeline_.process(
          std::move(result.publish->params), result.publish->parents, tangle_,
          store_);
    }
  });

  // Round barrier: everything published this round lands in the ledger
  // now, in slot order, and becomes visible from round + 1 on.
  std::size_t published = 0;
  std::size_t honest_published = 0;
  std::size_t honest_participants = 0;
  std::size_t malicious_published = 0;
  for (std::size_t slot = 0; slot < participants; ++slot) {
    auto& result = results[slot];
    if (!result.malicious) ++honest_participants;
    if (!result.publish) continue;
    const auto added = store_.add(std::move(result.publish->params));
    tangle_.add_transaction(result.publish->parents, added.id, added.hash,
                            round,
                            result.malicious
                                ? "malicious"
                                : dataset_->user(chosen[slot]).user_id);
    ++published;
    if (result.malicious) ++malicious_published;
    else ++honest_published;
  }
  last_publish_rate_ =
      honest_participants > 0
          ? static_cast<double>(honest_published) /
                static_cast<double>(honest_participants)
          : 0.0;

  const std::size_t suppressed = participants - published;
  published_total_ += published;
  suppressed_total_ += suppressed;
  rounds_counter().increment();
  published_counter().add(published);
  published_malicious_counter().add(malicious_published);
  suppressed_counter().add(suppressed);
  // Milestone pruning at the round barrier: every participant of this round
  // already trained, and the frontier only ever advances onto history every
  // later view contains. Walk roots come from cache entries, so pruning
  // requires the view cache.
  if (config_.prune.enabled && config_.use_view_cache && pruner_.tick()) {
    const tangle::TangleView full = tangle_.view();
    pruner_.advance(tangle_, store_, *view_cache_.get(full, &pool_));
  }
  ledger_bytes_gauge().set(static_cast<double>(store_.live_bytes()));
  if (config_.timeline != nullptr) probe_health(round);
  return published;
}

ReferenceResult TangleSimulation::consensus_reference() {
  // kConsensus, not kEval: consensus walks and eval-user sampling used to
  // share the kEval root, colliding whenever tangle_.size() == round (see
  // core/rng_streams.hpp).
  Rng rng = master_rng_.split(streams::kConsensus).split(tangle_.size());
  const tangle::TangleView view = tangle_.view();
  return config_.use_view_cache
             ? choose_reference(view, store_, *view_cache_.get(view, &pool_),
                                rng, config_.node.reference)
             : choose_reference(view, store_, rng, config_.node.reference);
}

nn::ParamVector TangleSimulation::consensus_params() {
  return consensus_reference().params;
}

RoundRecord TangleSimulation::evaluate(std::uint64_t round) {
  obs::TraceScope span("sim.evaluate");
  RoundRecord record;
  record.round = round;
  record.tangle_size = tangle_.size();
  record.tip_count =
      config_.use_view_cache
          ? view_cache_.get(tangle_.view(), &pool_)->tips().size()
          : tangle_.view().tips().size();
  record.publish_rate = last_publish_rate_;
  record.published_cumulative = published_total_;
  record.suppressed_cumulative = suppressed_total_;
  record.ledger_bytes = store_.live_bytes();
  ledger_bytes_gauge().set(static_cast<double>(record.ledger_bytes));

  // Pool the test data of a random eval_nodes_fraction of all users.
  const std::size_t num_users = dataset_->num_users();
  const auto eval_users = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.eval_nodes_fraction *
                                  static_cast<double>(num_users) +
                                  0.5));
  Rng eval_rng = master_rng_.split(streams::kEval).split(round);
  const std::vector<std::size_t> users =
      eval_rng.sample_without_replacement(num_users, eval_users);
  const data::DataSplit pooled = dataset_->pooled_test(users);
  if (pooled.empty()) return record;

  // Consensus eval via the engine: the pooled split is batched once per
  // eval round, the model comes from the pool, and the (reference payload
  // list, split) result caches — a repeat eval of an unchanged consensus
  // model on the same eval users costs no forward passes.
  const ReferenceResult reference = consensus_reference();
  const std::shared_ptr<const BatchedSplit> prepared =
      eval_engine_.prepare(pooled);
  const EvalRequest request{reference.params, ParamsKey{reference.payloads}};
  const data::EvalResult eval =
      eval_engine_
          .evaluate_many(std::span<const EvalRequest>(&request, 1), *prepared,
                         kernel_pool_.get())
          .front()
          .result;
  record.accuracy = eval.accuracy;
  record.loss = eval.loss;
  // The attack metrics run direct forwards over transformed inputs, so they
  // still need a concrete model instance carrying the reference weights.
  EvalEngine::ModelLease lease = eval_engine_.acquire();
  lease.model().set_parameters(reference.params);
  record.target_misclassification = data::targeted_misclassification_rate(
      lease.model(), pooled, config_.flip.source_class,
      config_.flip.target_class);
  if (config_.attack == AttackType::kBackdoor) {
    record.backdoor_success =
        data::backdoor_success_rate(lease.model(), pooled, config_.trigger);
  }
  return record;
}

RunResult TangleSimulation::run() {
  RunResult result;
  result.label = "tangle";
  for (std::uint64_t round = 1; round <= config_.rounds; ++round) {
    const std::size_t published = run_round(round);
    if (round % config_.eval_every == 0 || round == config_.rounds) {
      const RoundRecord record = evaluate(round);
      result.history.push_back(record);
      log_info() << "tangle round " << round << ": acc="
                 << record.accuracy << " loss=" << record.loss
                 << " tx=" << record.tangle_size
                 << " tips=" << record.tip_count
                 << " published=" << published
                 << " published_total=" << record.published_cumulative
                 << " suppressed_total=" << record.suppressed_cumulative;
    }
  }
  return result;
}

RunResult run_tangle_learning(const data::FederatedDataset& dataset,
                              nn::ModelFactory factory,
                              const SimulationConfig& config,
                              std::string label) {
  if (config.timeline != nullptr) config.timeline->begin_run(label);
  TangleSimulation simulation(dataset, std::move(factory), config);
  RunResult result = simulation.run();
  result.label = std::move(label);
  return result;
}

}  // namespace tanglefl::core
