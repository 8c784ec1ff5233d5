#include "core/async_simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"

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

AsyncSimulationConfig fast_config() {
  AsyncSimulationConfig config;
  config.duration_seconds = 30.0;
  config.wake_rate_per_node = 0.3;
  config.mean_training_seconds = 0.5;
  config.network_delay_seconds = 0.5;
  config.eval_every_seconds = 10.0;
  config.eval_nodes_fraction = 0.5;
  config.node.training.epochs = 1;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 7;
  return config;
}

TEST(AsyncSimulation, BackdoorAttackReportsBackdoorSuccess) {
  // Evaluations of a backdoor run report the trigger's attack-success rate,
  // as the round-based engine does.
  const auto dataset = small_dataset();
  AsyncSimulationConfig config = fast_config();
  config.attack = AttackType::kBackdoor;
  config.malicious_fraction = 0.5;
  config.trigger = {.target_class = 1, .patch_size = 2, .trigger_value = 1.0f};
  AsyncTangleSimulation sim(dataset, small_factory(), config);
  const RunResult result = sim.run();
  ASSERT_FALSE(result.history.empty());
  double max_success = 0.0;
  for (const RoundRecord& record : result.history) {
    EXPECT_GE(record.backdoor_success, 0.0);
    EXPECT_LE(record.backdoor_success, 1.0);
    max_success = std::max(max_success, record.backdoor_success);
  }
  EXPECT_GT(max_success, 0.0);
}

TEST(AsyncSimulation, LedgerGrowsOverTime) {
  const auto dataset = small_dataset();
  AsyncTangleSimulation sim(dataset, small_factory(), fast_config());
  const RunResult result = sim.run();
  EXPECT_GT(sim.tangle().size(), 1u);
  EXPECT_GT(sim.stats().wakeups, 10u);
  EXPECT_EQ(sim.stats().published + sim.stats().lost +
                sim.stats().abstained + sim.stats().in_flight,
            sim.stats().wakeups);
  EXPECT_FALSE(result.history.empty());
}

TEST(AsyncSimulation, PublishTimesAreMonotonic) {
  const auto dataset = small_dataset();
  AsyncTangleSimulation sim(dataset, small_factory(), fast_config());
  (void)sim.run();
  const tangle::Tangle& tangle = sim.tangle();
  for (tangle::TxIndex i = 1; i < tangle.size(); ++i) {
    EXPECT_GE(tangle.transaction(i).round, tangle.transaction(i - 1).round);
  }
}

TEST(AsyncSimulation, ParentsRespectNetworkDelay) {
  // A transaction published at time t trained on a view at some start
  // time s < t; its parents must have been published no later than
  // s - delay < t. With training >= 0 this means parent publish times are
  // strictly older than the child's by at least the network delay is not
  // exactly assertable (training varies), but parents must precede
  // children in time.
  const auto dataset = small_dataset();
  AsyncSimulationConfig config = fast_config();
  config.network_delay_seconds = 1.0;
  AsyncTangleSimulation sim(dataset, small_factory(), config);
  (void)sim.run();
  const tangle::Tangle& tangle = sim.tangle();
  for (tangle::TxIndex i = 1; i < tangle.size(); ++i) {
    for (const tangle::TxIndex p : tangle.parent_indices(i)) {
      EXPECT_LT(tangle.transaction(p).round, tangle.transaction(i).round);
    }
  }
}

TEST(AsyncSimulation, DeterministicInSeed) {
  const auto dataset = small_dataset();
  AsyncTangleSimulation a(dataset, small_factory(), fast_config());
  AsyncTangleSimulation b(dataset, small_factory(), fast_config());
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  ASSERT_EQ(a.tangle().size(), b.tangle().size());
  for (tangle::TxIndex i = 0; i < a.tangle().size(); ++i) {
    EXPECT_EQ(a.tangle().transaction(i).id, b.tangle().transaction(i).id);
  }
  ASSERT_EQ(ra.history.size(), rb.history.size());
}

TEST(AsyncSimulation, MessageLossReducesLedgerSize) {
  const auto dataset = small_dataset();
  AsyncSimulationConfig lossless = fast_config();
  AsyncSimulationConfig lossy = fast_config();
  lossy.publish_loss = 0.6;

  AsyncTangleSimulation a(dataset, small_factory(), lossless);
  AsyncTangleSimulation b(dataset, small_factory(), lossy);
  (void)a.run();
  (void)b.run();
  EXPECT_GT(b.stats().lost, 0u);
  EXPECT_LT(b.stats().published, a.stats().published);
}

TEST(AsyncSimulation, HigherWakeRateProducesMoreTransactions) {
  const auto dataset = small_dataset();
  AsyncSimulationConfig slow = fast_config();
  slow.wake_rate_per_node = 0.1;
  AsyncSimulationConfig fast = fast_config();
  fast.wake_rate_per_node = 0.6;

  AsyncTangleSimulation a(dataset, small_factory(), slow);
  AsyncTangleSimulation b(dataset, small_factory(), fast);
  (void)a.run();
  (void)b.run();
  EXPECT_GT(b.stats().wakeups, a.stats().wakeups);
}

TEST(AsyncSimulation, EvaluationCadence) {
  const auto dataset = small_dataset();
  AsyncSimulationConfig config = fast_config();
  config.duration_seconds = 25.0;
  config.eval_every_seconds = 10.0;
  AsyncTangleSimulation sim(dataset, small_factory(), config);
  const RunResult result = sim.run();
  // Evaluations at 10s, 20s, plus the final one at 25s.
  ASSERT_EQ(result.history.size(), 3u);
  EXPECT_EQ(result.history[0].round, 10u);
  EXPECT_EQ(result.history[1].round, 20u);
  EXPECT_EQ(result.history[2].round, 25u);
}

TEST(AsyncSimulation, AttackAfterStartTimeOnly) {
  const auto dataset = small_dataset();
  AsyncSimulationConfig config = fast_config();
  config.attack = AttackType::kRandomPoison;
  config.malicious_fraction = 0.4;
  config.attack_start_seconds = 15.0;
  AsyncTangleSimulation sim(dataset, small_factory(), config);
  (void)sim.run();
  for (tangle::TxIndex i = 1; i < sim.tangle().size(); ++i) {
    const auto& tx = sim.tangle().transaction(i);
    if (tx.publisher == "malicious") {
      // Published after training that started at >= 15s.
      EXPECT_GE(tx.round, 15u * 1000000u);
    }
  }
}

TEST(AsyncSimulation, LearnsOverTheHorizon) {
  const auto dataset = small_dataset();
  AsyncSimulationConfig config = fast_config();
  config.duration_seconds = 80.0;
  config.wake_rate_per_node = 0.4;
  config.eval_every_seconds = 80.0;
  config.node.num_tips = 3;
  config.node.tip_sample_size = 6;
  config.node.reference.num_reference_models = 5;
  config.node.reference.confidence.sample_rounds = 10;
  const RunResult result =
      run_async_tangle_learning(dataset, small_factory(), config);
  // 3 classes: chance ~0.33.
  EXPECT_GT(result.final_accuracy(), 0.45);
}

}  // namespace
}  // namespace tanglefl::core
