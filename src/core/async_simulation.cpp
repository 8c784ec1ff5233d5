#include "core/async_simulation.hpp"

#include <cmath>
#include <queue>

#include "core/rng_streams.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tanglefl::core {
namespace {

/// Exponential inter-arrival sample.
double exponential(Rng& rng, double rate) {
  double u = 0.0;
  do {
    u = rng.uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

std::uint64_t to_micros(double seconds) noexcept {
  return static_cast<std::uint64_t>(seconds * 1e6);
}

AsyncSimulationConfig with_micros_orphan_age(AsyncSimulationConfig config) {
  // Ledger time is microseconds here; the orphan age arrives in seconds.
  config.health.orphan_age = to_micros(config.health_orphan_age_seconds);
  return config;
}

}  // namespace

AsyncTangleSimulation::AsyncTangleSimulation(
    const data::FederatedDataset& dataset, nn::ModelFactory factory,
    AsyncSimulationConfig config)
    : config_(with_micros_orphan_age(std::move(config))),
      // Cache entries are keyed by prefix count: the slots hold the latest
      // wake horizons plus the full eval view.
      core_(dataset, std::move(factory), config_, config_,
            {.eval_every = config_.eval_every_seconds,
             .view_cache_capacity = 4}) {}

RoundRecord AsyncTangleSimulation::evaluate(double now) {
  obs::TraceScope span("sim.evaluate");
  RoundRecord record = core_.start_record(static_cast<std::uint64_t>(now));
  record.published_cumulative = stats_.published;
  record.suppressed_cumulative = stats_.abstained + stats_.lost;

  // Milestone pruning at the evaluation instant. Every later wake trains on
  // at least the prefix that had propagated by now - network_delay (wakes
  // are processed in time order and evals run before the wake they precede),
  // so the frontier is clamped strictly below that visible count and stays
  // inside every future horizon view.
  if (core_.prune_due() && now > config_.network_delay_seconds) {
    const std::size_t visible = core_.tangle().visible_count_for_round(
        to_micros(now - config_.network_delay_seconds) + 1);
    if (visible > 1) core_.prune(std::nullopt, visible - 1);
  }
  core_.timeline_barrier(to_micros(now), record.round);

  Rng eval_rng = core_.stream(streams::kEval).split(to_micros(now));
  core_.evaluate_consensus(record, core_.tangle().view(), eval_rng,
                           core_.consensus_rng(), /*attack_metrics=*/true);
  return record;
}

RunResult AsyncTangleSimulation::run() {
  struct WakeEvent {
    double time;
    std::size_t user;
    bool operator>(const WakeEvent& other) const { return time > other.time; }
  };
  struct PendingPublish {
    double time;
    PublishRequest request;
    bool malicious;
    bool operator>(const PendingPublish& other) const {
      return time > other.time;
    }
  };

  std::priority_queue<WakeEvent, std::vector<WakeEvent>, std::greater<>>
      wakes;
  std::priority_queue<PendingPublish, std::vector<PendingPublish>,
                      std::greater<>>
      pending;

  const std::size_t num_users = core_.dataset().num_users();
  Rng wake_rng = core_.stream(streams::kWake);
  for (std::size_t u = 0; u < num_users; ++u) {
    Rng node_wake = wake_rng.split(u + 1);
    wakes.push({exponential(node_wake, config_.wake_rate_per_node), u});
  }
  Rng loss_rng = core_.stream(streams::kLoss);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  RunResult result;
  result.label = "tangle-async";
  double next_eval = config_.eval_every_seconds;

  // Flushes landed publishes up to `now`, preserving publish-time order.
  const auto flush_until = [&](double now) {
    while (!pending.empty() && pending.top().time <= now) {
      PendingPublish top = pending.top();
      pending.pop();
      if (loss_rng.bernoulli(config_.publish_loss)) {
        ++stats_.lost;
        registry.counter("async.lost").increment();
        continue;
      }
      core_.encode(top.request);
      core_.commit(std::move(top.request), to_micros(top.time),
                   top.malicious ? "malicious" : "async-node");
      ++stats_.published;
      registry.counter("async.published").increment();
    }
  };

  while (!wakes.empty() && wakes.top().time <= config_.duration_seconds) {
    const WakeEvent event = wakes.top();
    wakes.pop();

    while (next_eval <= event.time) {
      flush_until(next_eval);
      result.history.push_back(evaluate(next_eval));
      next_eval += config_.eval_every_seconds;
    }
    flush_until(event.time);
    ++stats_.wakeups;
    registry.counter("async.wakeups").increment();

    // The node sees everything that propagated to it by now.
    const double horizon = event.time - config_.network_delay_seconds;
    const tangle::TangleView view = core_.tangle().view_prefix(
        horizon <= 0.0 ? 1 : core_.tangle().visible_count_for_round(
                                 to_micros(horizon) + 1));

    const bool malicious = event.time >= config_.attack_start_seconds &&
                           core_.is_malicious(event.user);
    // Wakes clustered between publishes see identical prefixes, so the
    // keyed cache turns their cone computations into hits.
    const auto cones = core_.cones(view);
    NodeContext context =
        core_.node_context(view, *cones, to_micros(event.time), event.user);
    std::optional<PublishRequest> publish =
        core_.step_node(context, event.user, malicious);

    Rng timing_rng = context.rng.split(streams::kTiming);
    if (publish) {
      const double training =
          exponential(timing_rng, 1.0 / config_.mean_training_seconds);
      pending.push({event.time + training, std::move(*publish), malicious});
    } else {
      ++stats_.abstained;
      registry.counter("async.abstained").increment();
    }

    // Schedule this node's next wakeup.
    const double next_wake =
        event.time + exponential(timing_rng, config_.wake_rate_per_node);
    if (next_wake <= config_.duration_seconds) {
      wakes.push({next_wake, event.user});
    }
  }

  // Drain the horizon: remaining publishes plus the final evaluation.
  flush_until(config_.duration_seconds);
  stats_.in_flight = pending.size();
  while (next_eval <= config_.duration_seconds) {
    result.history.push_back(evaluate(next_eval));
    next_eval += config_.eval_every_seconds;
  }
  result.history.push_back(evaluate(config_.duration_seconds));
  return result;
}

RunResult run_async_tangle_learning(const data::FederatedDataset& dataset,
                                    nn::ModelFactory factory,
                                    const AsyncSimulationConfig& config,
                                    std::string label) {
  if (config.timeline != nullptr) config.timeline->begin_run(label);
  AsyncTangleSimulation simulation(dataset, std::move(factory), config);
  RunResult result = simulation.run();
  result.label = std::move(label);
  return result;
}

}  // namespace tanglefl::core
