#include "core/gossip_simulation.hpp"

#include <algorithm>
#include <cassert>

#include "core/rng_streams.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace tanglefl::core {

GossipSimulation::GossipSimulation(const data::FederatedDataset& dataset,
                                   nn::ModelFactory factory,
                                   GossipConfig config)
    : config_(std::move(config)),
      // Replicas diverge, so keep enough slots for every distinct membership
      // a round's participants may hold (plus the observer's eval view).
      core_(dataset, std::move(factory), config_, AttackConfig{},
            {.eval_every = static_cast<double>(config_.eval_every),
             .view_cache_capacity = 16}) {
  const std::size_t num_users = core_.dataset().num_users();
  assert(num_users >= 2);

  // Random pull topology: each node pulls from `peers_per_node` distinct
  // other nodes. (Directed; the union in/out degree keeps the graph
  // connected with high probability for fanout >= 2.)
  Rng topology_rng = core_.stream(streams::kTopology);
  peers_.resize(num_users);
  const std::size_t fanout =
      std::min(config_.peers_per_node, num_users - 1);
  for (std::size_t u = 0; u < num_users; ++u) {
    Rng node_rng = topology_rng.split(u + 1);
    const auto sample =
        node_rng.sample_without_replacement(num_users - 1, fanout);
    for (const std::size_t s : sample) {
      // Map [0, num_users-1) onto peers != u.
      peers_[u].push_back(s < u ? s : s + 1);
    }
  }

  // Every replica starts with the genesis only.
  known_.assign(num_users, std::vector<bool>(1, true));
}

tangle::TangleView GossipSimulation::replica_view(std::size_t node) const {
  return tangle::TangleView(core_.tangle(), known_.at(node));
}

double GossipSimulation::mean_coverage() const {
  const auto total = static_cast<double>(core_.tangle().size());
  double acc = 0.0;
  for (const auto& known : known_) {
    acc += static_cast<double>(std::count(known.begin(), known.end(), true)) /
           total;
  }
  return acc / static_cast<double>(known_.size());
}

void GossipSimulation::pull(std::size_t from, std::size_t to) {
  // Anti-entropy: `to` learns the oldest `max_transfer` transactions that
  // `from` knows and `to` does not. Oldest-first transfer preserves
  // ancestor closure because parents always precede children.
  auto& mine = known_[to];
  const auto& theirs = known_[from];
  const std::size_t size = core_.tangle().size();
  mine.resize(size, false);
  std::size_t transferred = 0;
  const std::size_t limit =
      config_.max_transfer == 0 ? size : config_.max_transfer;
  for (tangle::TxIndex i = 0; i < theirs.size(); ++i) {
    if (!theirs[i] || mine[i]) continue;
    mine[i] = true;
    if (++transferred >= limit) break;
  }
}

std::size_t GossipSimulation::run_round(std::uint64_t round) {
  obs::TraceScope span("sim.round");
  assert(round >= 1);
  const std::size_t num_users = core_.dataset().num_users();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  // --- gossip phase -------------------------------------------------
  Rng pull_rng = core_.stream(streams::kPull).split(round);
  for (std::size_t exchange = 0; exchange < config_.gossip_exchanges;
       ++exchange) {
    for (std::size_t u = 0; u < num_users; ++u) {
      for (const std::size_t peer : peers_[u]) {
        if (pull_rng.bernoulli(config_.pull_failure)) {
          ++stats_.failed_pulls;
          registry.counter("gossip.failed_pulls").increment();
          continue;
        }
        pull(peer, u);
        ++stats_.pulls;
        registry.counter("gossip.pulls").increment();
      }
    }
  }

  // --- training phase ------------------------------------------------
  const std::size_t participants =
      std::min(config_.nodes_per_round, num_users);
  Rng selection_rng = core_.stream(streams::kParticipant).split(round);
  const std::vector<std::size_t> chosen =
      selection_rng.sample_without_replacement(num_users, participants);

  std::size_t published = 0;
  for (const std::size_t user_index : chosen) {
    const tangle::TangleView view = replica_view(user_index);
    // Participants whose replicas converged to the same membership share
    // one cone computation through the keyed cache.
    const auto cones = core_.cones(view);
    NodeContext context = core_.node_context(view, *cones, round, user_index);
    auto publish = core_.step_node(context, user_index, /*malicious=*/false);
    if (!publish) {
      ++stats_.suppressed;
      registry.counter("gossip.suppressed").increment();
      continue;
    }
    core_.encode(*publish);
    const tangle::TxIndex index =
        core_.commit(std::move(*publish), round,
                     core_.dataset().user(user_index).user_id);
    // Initially only the publisher knows its own transaction.
    for (auto& known : known_) known.resize(core_.tangle().size(), false);
    known_[user_index][index] = true;
    ++published;
    ++stats_.published;
    registry.counter("gossip.published").increment();
  }

  // Milestone pruning under partial views: the milestone must sit in the
  // past cone of EVERY replica's tips, so the required set is the union of
  // all replica tip sets. Any replica still stuck at the genesis keeps the
  // frontier where it is until gossip catches it up.
  if (core_.prune_due()) {
    std::vector<tangle::TxIndex> required_tips;
    for (std::size_t u = 0; u < num_users; ++u) {
      const std::vector<tangle::TxIndex> tips = replica_view(u).tips();
      required_tips.insert(required_tips.end(), tips.begin(), tips.end());
    }
    std::sort(required_tips.begin(), required_tips.end());
    required_tips.erase(
        std::unique(required_tips.begin(), required_tips.end()),
        required_tips.end());
    core_.prune(required_tips);
  }

  core_.update_ledger_gauge();
  if (config_.timeline != nullptr) {
    registry.gauge("gossip.coverage").set(mean_coverage());
  }
  core_.timeline_barrier(round, round);
  return published;
}

RoundRecord GossipSimulation::evaluate(std::uint64_t round) {
  obs::TraceScope span("sim.evaluate");
  RoundRecord record = core_.start_record(round);
  record.publish_rate = mean_coverage();  // repurposed: replica coverage
  record.published_cumulative = stats_.published;
  record.suppressed_cumulative = stats_.suppressed;

  // A participant's perspective: consensus from one random replica, with
  // accuracy and loss only.
  Rng eval_rng = core_.stream(streams::kEval).split(round);
  const std::size_t observer =
      eval_rng.uniform_index(core_.dataset().num_users());
  core_.evaluate_consensus(record, replica_view(observer), eval_rng,
                           eval_rng.split(1), /*attack_metrics=*/false);
  return record;
}

RunResult GossipSimulation::run() {
  RunResult result;
  result.label = "tangle-gossip";
  for (std::uint64_t round = 1; round <= config_.rounds; ++round) {
    const std::size_t published = run_round(round);
    if (round % config_.eval_every == 0 || round == config_.rounds) {
      const RoundRecord record = evaluate(round);
      result.history.push_back(record);
      log_info() << "gossip round " << round << ": acc=" << record.accuracy
                 << " coverage=" << record.publish_rate
                 << " tx=" << record.tangle_size
                 << " published=" << published;
    }
  }
  stats_.final_mean_coverage = mean_coverage();
  return result;
}

RunResult run_gossip_tangle_learning(const data::FederatedDataset& dataset,
                                     nn::ModelFactory factory,
                                     const GossipConfig& config,
                                     std::string label) {
  if (config.timeline != nullptr) config.timeline->begin_run(label);
  GossipSimulation simulation(dataset, std::move(factory), config);
  RunResult result = simulation.run();
  result.label = std::move(label);
  return result;
}

}  // namespace tanglefl::core
