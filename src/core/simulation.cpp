#include "core/simulation.hpp"

#include <algorithm>
#include <cassert>

#include "core/rng_streams.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace tanglefl::core {
namespace {

// Paper (Sec. IV): "we set the number of sampling rounds for establishing
// the consensus and for selecting the parent tips for training equal to the
// number of active nodes per round". Health probes follow the same rule.
SimulationConfig with_auto_confidence(SimulationConfig config) {
  config.node.reference.confidence.sample_rounds = config.nodes_per_round;
  config.health.confidence.sample_rounds = config.nodes_per_round;
  return config;
}

}  // namespace

TangleSimulation::TangleSimulation(const data::FederatedDataset& dataset,
                                   nn::ModelFactory factory,
                                   SimulationConfig config)
    : config_(with_auto_confidence(std::move(config))),
      pool_(std::max<std::size_t>(1, config_.threads)),
      kernel_pool_(config_.kernel_threads > 1
                       ? std::make_unique<ThreadPool>(config_.kernel_threads)
                       : nullptr),
      // Round views are strict prefixes that grow monotonically, so a
      // couple of cache slots cover the live round view plus the full eval
      // view.
      core_(dataset, std::move(factory), config_, config_,
            {.eval_every = static_cast<double>(config_.eval_every),
             .view_cache_capacity = 4,
             .cone_pool = &pool_,
             .kernel_pool = kernel_pool_.get()}) {}

std::size_t TangleSimulation::run_round(std::uint64_t round) {
  obs::TraceScope span("sim.round");
  assert(round >= 1);
  const std::size_t num_users = core_.dataset().num_users();
  const std::size_t participants =
      std::min(config_.nodes_per_round, num_users);

  Rng selection_rng = core_.stream(streams::kParticipant).split(round);
  const std::vector<std::size_t> chosen =
      selection_rng.sample_without_replacement(num_users, participants);

  const tangle::TangleView view =
      core_.tangle().view_prefix(core_.tangle().visible_count_for_round(round));
  // One cone computation for the whole round, shared read-only by every
  // participant, instead of one per node step.
  const std::shared_ptr<const tangle::ViewCacheEntry> cones = core_.cones(view);
  const bool attacking = round >= config_.attack_start_round;

  struct SlotResult {
    std::optional<PublishRequest> publish;
    bool malicious = false;
    std::size_t samples = 0;  // claim key: see EngineCore::step_samples
  };
  std::vector<SlotResult> results(participants);
  // The round waits for its slowest lane, so lanes claim the steps with the
  // most samples first; the insertion sort keeps ties in slot order. Each
  // step draws from its own (round, user) stream and writes only its slot,
  // so the claim order changes no bit.
  std::vector<std::size_t> claims(participants);
  for (std::size_t slot = 0; slot < participants; ++slot) {
    SlotResult& result = results[slot];
    result.malicious = attacking && core_.is_malicious(chosen[slot]);
    result.samples = core_.step_samples(chosen[slot], result.malicious);
    std::size_t i = slot;
    for (; i > 0 && results[claims[i - 1]].samples < result.samples; --i) {
      claims[i] = claims[i - 1];
    }
    claims[i] = slot;
  }
  const bool codec_on = config_.codec.any_stage();

  pool_.parallel_for(participants, [&](std::size_t claim) {
    const std::size_t slot = claims[claim];
    SlotResult& result = results[slot];
    const std::size_t user_index = chosen[slot];
    NodeContext context = core_.node_context(view, *cones, round, user_index);
    result.publish = core_.step_node(context, user_index, result.malicious);
    // Without the codec the payload is final here: hash it on this lane
    // instead of at the barrier.
    if (result.publish && !codec_on) {
      result.publish->digest =
          tangle::ModelStore::hash_params(result.publish->params);
    }
  });

  // The codec runs after the node steps, as tasks of its own on the same
  // pool, so a lane that drew a long step does not also code its payload.
  // The delta bases come from parents in the round's prefix view, which
  // nothing mutates before the barrier, encode/decode are pure, and the
  // best-of choice is made serially in slot order, so the canonical
  // payloads do not depend on which lane codes them. Each payload's first
  // codec task also hashes it.
  std::vector<PublishRequest*> publishes;
  for (SlotResult& result : results) {
    if (result.publish) publishes.push_back(&*result.publish);
  }
  core_.encode(publishes);

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
    core_.commit(std::move(*result.publish), round,
                 result.malicious ? "malicious"
                                  : core_.dataset().user(chosen[slot]).user_id);
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
  // Every round contributes (not only eval rounds), so the publish/suppress
  // series is complete.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.counter("sim.rounds").increment();
  registry.counter("sim.published").add(published);
  registry.counter("sim.published.malicious").add(malicious_published);
  registry.counter("sim.suppressed").add(suppressed);
  // Milestone pruning at the round barrier: every participant of this round
  // already trained, and the frontier only ever advances onto history every
  // later view contains.
  if (core_.prune_due()) core_.prune();
  core_.update_ledger_gauge();
  core_.timeline_barrier(round, round);
  return published;
}

RoundRecord TangleSimulation::evaluate(std::uint64_t round) {
  obs::TraceScope span("sim.evaluate");
  RoundRecord record = core_.start_record(round);
  record.publish_rate = last_publish_rate_;
  record.published_cumulative = published_total_;
  record.suppressed_cumulative = suppressed_total_;
  Rng eval_rng = core_.stream(streams::kEval).split(round);
  core_.evaluate_consensus(record, core_.tangle().view(), eval_rng,
                           core_.consensus_rng(), /*attack_metrics=*/true);
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
