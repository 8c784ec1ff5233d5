// Engine-level regression pins. Each golden digest set covers one small
// run per engine with the timeline, milestone pruning and the lossless
// default codec on, so every shared EngineCore service (view cache, eval
// engine, pruner, payload pipeline, health probe, registry sampler) feeds
// into at least one digest. A digest change means a same-seed run no
// longer reproduces: ledger contents, evaluation history, the
// deterministic registry snapshot, or the per-round timeline moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/async_simulation.hpp"
#include "core/gossip_simulation.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "support/sha256.hpp"
#include "tangle/payload_codec.hpp"

namespace tanglefl::core {
namespace {

data::FederatedDataset small_dataset() {
  data::FemnistSynthConfig config;
  config.num_users = 12;
  config.num_classes = 3;
  config.image_size = 8;
  config.mean_samples_per_user = 15.0;
  config.seed = 3;
  return data::make_femnist_synth(config);
}

nn::ModelFactory small_factory() {
  nn::ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.conv1_channels = 2;
  config.conv2_channels = 4;
  config.hidden = 8;
  return [config] { return nn::make_image_cnn(config); };
}

// Timeline, pruning and the lossless codec on; robust tip selection so
// node steps probe candidates through the eval engine.
template <typename Config>
void enable_services(Config& config, obs::Timeline& timeline) {
  config.eval_nodes_fraction = 0.5;
  config.node.training.epochs = 1;
  config.node.training.sgd.learning_rate = 0.05;
  config.node.num_tips = 2;
  config.node.tip_sample_size = 3;
  config.codec = tangle::parse_codec_spec("default");
  config.prune.enabled = true;
  config.prune.interval = 2;
  config.prune.keep_recent = 6;
  config.timeline = &timeline;
}

struct Digests {
  std::string tx_ids;
  std::string history;
  std::string counters;
  std::string timeline;
};

std::string digest_of(const std::string& text) {
  return to_hex(Sha256::hash(text));
}

Digests digests(const tangle::Tangle& tangle, const RunResult& result,
                const obs::Timeline& timeline) {
  std::string ids;
  for (tangle::TxIndex i = 0; i < tangle.size(); ++i) {
    ids += to_hex(tangle.transaction(i).id);
  }
  std::string history;
  char line[512];
  for (const RoundRecord& r : result.history) {
    std::snprintf(line, sizeof line,
                  "%llu %a %a %a %a %zu %zu %a %llu %llu %zu\n",
                  static_cast<unsigned long long>(r.round), r.accuracy,
                  r.loss, r.target_misclassification, r.backdoor_success,
                  r.tangle_size, r.tip_count, r.publish_rate,
                  static_cast<unsigned long long>(r.published_cumulative),
                  static_cast<unsigned long long>(r.suppressed_cumulative),
                  r.ledger_bytes);
    history += line;
  }
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::global().snapshot(
      obs::SnapshotKind::kDeterministic);
  std::erase_if(snapshot.counters, [](const auto& c) { return c.value == 0; });
  std::erase_if(snapshot.gauges, [](const auto& g) { return g.value == 0.0; });
  std::erase_if(snapshot.histograms,
                [](const auto& h) { return h.count == 0; });
  return {digest_of(ids), digest_of(history), digest_of(snapshot.to_json(0)),
          digest_of(timeline.to_jsonl())};
}

void expect_digests(const Digests& actual, const Digests& golden) {
  EXPECT_EQ(actual.tx_ids, golden.tx_ids);
  EXPECT_EQ(actual.history, golden.history);
  EXPECT_EQ(actual.counters, golden.counters);
  EXPECT_EQ(actual.timeline, golden.timeline);
}

TEST(EngineCore, SyncRandomPoisonGoldenDigests) {
  const auto dataset = small_dataset();
  obs::Timeline timeline;
  SimulationConfig config;
  enable_services(config, timeline);
  config.rounds = 8;
  config.nodes_per_round = 4;
  config.eval_every = 2;
  config.attack = AttackType::kRandomPoison;
  config.malicious_fraction = 0.25;
  config.attack_start_round = 3;
  config.seed = 5;
  obs::MetricsRegistry::global().reset();
  timeline.begin_run("sync");
  TangleSimulation sim(dataset, small_factory(), config);
  const RunResult result = sim.run();
  expect_digests(
      digests(sim.tangle(), result, timeline),
      {"9c43301beba6b64da81cd86a7ca974efb852fe729b69b9d014fd7b438f3103cf",
       "23923060b43791f64004d302033892f9eaf75dc7599c612c9c1ed41cb130b1b0",
       "fb5de5842e054c7b07add8a2ef3fdd2276f3ac3c23f0e91c04cc5a429bac8a7c",
       "28d980dcf49df92a039ee2acffdd46cabb5cedf16348ec73d36c5cdd922f20c2"});

  // The pins above are exact, so they also hold every work counter a
  // poisoned robust-sampling run must record and the final row's health
  // series; name them so a re-pin cannot drop one unnoticed.
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::global().snapshot(
      obs::SnapshotKind::kDeterministic);
  for (const std::string name :
       {"eval.batched.groups", "eval.batched.models",
        "eval.batched.pack_reuses", "eval.cache.hit", "eval.cache.miss",
        "eval.examples", "eval.forwards", "nn.conv.flops", "nn.gemm.flops",
        "tangle.cones.incremental.appended", "tangle.cones.incremental.builds",
        "tangle.tip_walk.count", "tangle.transactions.added",
        "train.batches"}) {
    const auto it = std::find_if(
        snapshot.counters.begin(), snapshot.counters.end(),
        [&](const obs::CounterSnapshot& c) { return c.name == name; });
    ASSERT_NE(it, snapshot.counters.end()) << name;
    EXPECT_GT(it->value, 0u) << name;
  }
  const std::string jsonl = timeline.to_jsonl();
  const std::string last_row =
      jsonl.substr(jsonl.rfind('\n', jsonl.size() - 2) + 1);
  for (const std::string series :
       {"tangle.health.tip_count", "tangle.health.orphan_count",
        "tangle.health.orphan_rate", "tangle.health.confirmed_count",
        "tangle.health.depth_mean", "sim.ledger_bytes"}) {
    EXPECT_NE(last_row.find('"' + series + '"'), std::string::npos) << series;
  }
}

TEST(EngineCore, AsyncLabelFlipGoldenDigests) {
  const auto dataset = small_dataset();
  obs::Timeline timeline;
  AsyncSimulationConfig config;
  enable_services(config, timeline);
  config.duration_seconds = 30.0;
  config.wake_rate_per_node = 0.3;
  config.mean_training_seconds = 0.5;
  config.network_delay_seconds = 0.5;
  config.publish_loss = 0.2;
  config.eval_every_seconds = 5.0;
  config.attack = AttackType::kLabelFlip;
  config.malicious_fraction = 0.25;
  config.attack_start_seconds = 5.0;
  config.seed = 7;
  obs::MetricsRegistry::global().reset();
  timeline.begin_run("async");
  AsyncTangleSimulation sim(dataset, small_factory(), config);
  const RunResult result = sim.run();
  expect_digests(
      digests(sim.tangle(), result, timeline),
      {"5693653de31e45b40bdeba5c5bcc80e1020a0ed8f9dce623d79381b2b6ba7f37",
       "2a90570db098f25add366db981e7e243bdca04ed938eb4c040ce4a36c12ec415",
       "737706acf485ce532e21d751a905665afb065a95e7d049904cafa7499643605e",
       "67824c06bd8ae851b85c4a036662293c06ebc30ed526a1e238489070365f0058"});
}

TEST(EngineCore, GossipPullFailureGoldenDigests) {
  const auto dataset = small_dataset();
  obs::Timeline timeline;
  GossipConfig config;
  enable_services(config, timeline);
  config.rounds = 8;
  config.nodes_per_round = 4;
  config.peers_per_node = 3;
  config.gossip_exchanges = 2;
  config.pull_failure = 0.3;
  config.eval_every = 2;
  config.seed = 9;
  obs::MetricsRegistry::global().reset();
  timeline.begin_run("gossip");
  GossipSimulation sim(dataset, small_factory(), config);
  const RunResult result = sim.run();
  expect_digests(
      digests(sim.tangle(), result, timeline),
      {"f2de07a2910a7ff5753e503a16d36982b9024347d002510e4a50fb41054cdcc8",
       "7e248a46439d5a37a143d23d95c526afa4650f1b71050f2fbb5a25079c359e43",
       "d8d6a84b2f5d547b5e03a995aa23b004a85ae1cb7f594f04532872ec2a4f8f99",
       "d7fe44b38f665713537bbfe9433ef64a8bb164707ce20d779a4875db9fd048a1"});
}

// Config validation: every engine rejects a bad value at construction with
// std::invalid_argument instead of dividing by zero, sampling more users
// than exist, or looping forever later on.

TEST(EngineCore, RejectsZeroEvalEvery) {
  const auto dataset = small_dataset();
  SimulationConfig sync;
  sync.eval_every = 0;
  EXPECT_THROW(TangleSimulation(dataset, small_factory(), sync),
               std::invalid_argument);
  GossipConfig gossip;
  gossip.eval_every = 0;
  EXPECT_THROW(GossipSimulation(dataset, small_factory(), gossip),
               std::invalid_argument);
}

TEST(EngineCore, RejectsNonPositiveEvalEverySeconds) {
  const auto dataset = small_dataset();
  for (const double seconds : {0.0, -1.0}) {
    AsyncSimulationConfig config;
    config.eval_every_seconds = seconds;
    EXPECT_THROW(AsyncTangleSimulation(dataset, small_factory(), config),
                 std::invalid_argument);
  }
}

TEST(EngineCore, RejectsMaliciousFractionOutsideUnitInterval) {
  const auto dataset = small_dataset();
  for (const double fraction : {-0.1, 1.5}) {
    SimulationConfig sync;
    sync.attack = AttackType::kRandomPoison;
    sync.malicious_fraction = fraction;
    EXPECT_THROW(TangleSimulation(dataset, small_factory(), sync),
                 std::invalid_argument);
    AsyncSimulationConfig async;
    async.attack = AttackType::kRandomPoison;
    async.malicious_fraction = fraction;
    EXPECT_THROW(AsyncTangleSimulation(dataset, small_factory(), async),
                 std::invalid_argument);
  }
  // The closed upper bound is valid: every user turns malicious.
  SimulationConfig all;
  all.attack = AttackType::kRandomPoison;
  all.malicious_fraction = 1.0;
  TangleSimulation sim(dataset, small_factory(), all);
  EXPECT_EQ(sim.malicious_users().size(), dataset.num_users());
}

TEST(EngineCore, RejectsEvalNodesFractionOutsideUnitInterval) {
  const auto dataset = small_dataset();
  for (const double fraction : {0.0, -0.5, 1.5}) {
    SimulationConfig sync;
    sync.eval_nodes_fraction = fraction;
    EXPECT_THROW(TangleSimulation(dataset, small_factory(), sync),
                 std::invalid_argument);
    AsyncSimulationConfig async;
    async.eval_nodes_fraction = fraction;
    EXPECT_THROW(AsyncTangleSimulation(dataset, small_factory(), async),
                 std::invalid_argument);
    GossipConfig gossip;
    gossip.eval_nodes_fraction = fraction;
    EXPECT_THROW(GossipSimulation(dataset, small_factory(), gossip),
                 std::invalid_argument);
  }
  SimulationConfig whole;
  whole.eval_nodes_fraction = 1.0;
  EXPECT_NO_THROW(TangleSimulation(dataset, small_factory(), whole));
}

}  // namespace
}  // namespace tanglefl::core
