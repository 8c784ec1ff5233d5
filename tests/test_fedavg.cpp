#include "fedavg/fedavg.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"

namespace tanglefl::fedavg {
namespace {

data::FederatedDataset small_dataset(std::uint64_t seed = 3) {
  data::FemnistSynthConfig config;
  config.num_users = 10;
  config.num_classes = 3;
  config.image_size = 8;
  config.mean_samples_per_user = 20.0;
  config.seed = seed;
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

FedAvgConfig fast_config(std::size_t rounds = 6) {
  FedAvgConfig config;
  config.rounds = rounds;
  config.clients_per_round = 4;
  config.eval_every = 2;
  config.eval_nodes_fraction = 0.5;
  config.training.epochs = 1;
  config.training.sgd.learning_rate = 0.05;
  config.seed = 1;
  return config;
}

TEST(FedAvg, GlobalParamsSizedToModel) {
  const auto dataset = small_dataset();
  FedAvgServer server(dataset, small_factory(), fast_config());
  EXPECT_EQ(server.global_params().size(),
            small_factory()().parameter_count());
}

TEST(FedAvg, RoundChangesGlobalModel) {
  const auto dataset = small_dataset();
  FedAvgServer server(dataset, small_factory(), fast_config());
  const nn::ParamVector before = server.global_params();
  const std::size_t contributors = server.run_round(1);
  EXPECT_GT(contributors, 0u);
  EXPECT_NE(server.global_params(), before);
}

TEST(FedAvg, DeterministicAcrossRuns) {
  const auto dataset = small_dataset();
  FedAvgServer a(dataset, small_factory(), fast_config());
  FedAvgServer b(dataset, small_factory(), fast_config());
  (void)a.run();
  (void)b.run();
  EXPECT_EQ(a.global_params(), b.global_params());
}

TEST(FedAvg, DeterministicAcrossThreadCounts) {
  const auto dataset = small_dataset();
  FedAvgConfig one = fast_config();
  one.threads = 1;
  FedAvgConfig four = fast_config();
  four.threads = 4;
  FedAvgServer a(dataset, small_factory(), one);
  FedAvgServer b(dataset, small_factory(), four);
  (void)a.run();
  (void)b.run();
  // Weighted averaging order is fixed by slot order, so results match
  // exactly regardless of scheduling.
  EXPECT_EQ(a.global_params(), b.global_params());
}

TEST(FedAvg, HistoryAtCadence) {
  const auto dataset = small_dataset();
  const core::RunResult result =
      run_fedavg(dataset, small_factory(), fast_config(6));
  ASSERT_EQ(result.history.size(), 3u);
  EXPECT_EQ(result.label, "fedavg");
}

TEST(FedAvg, RejectsInvalidConfig) {
  // The engines' validation rules: a zero cadence would divide by zero and
  // a fraction above 1 would sample more users than exist.
  const auto dataset = small_dataset();
  FedAvgConfig zero_cadence = fast_config();
  zero_cadence.eval_every = 0;
  EXPECT_THROW(FedAvgServer(dataset, small_factory(), zero_cadence),
               std::invalid_argument);
  FedAvgConfig too_malicious = fast_config();
  too_malicious.attack = core::AttackType::kRandomPoison;
  too_malicious.malicious_fraction = 1.5;
  EXPECT_THROW(FedAvgServer(dataset, small_factory(), too_malicious),
               std::invalid_argument);
  FedAvgConfig no_eval_users = fast_config();
  no_eval_users.eval_nodes_fraction = 0.0;
  EXPECT_THROW(FedAvgServer(dataset, small_factory(), no_eval_users),
               std::invalid_argument);
}

TEST(FedAvg, AccuracyImprovesOverTraining) {
  const auto dataset = small_dataset();
  // A slightly larger CNN than the smoke-test factory: the 2/4/8 model is
  // too weak to fit this task.
  nn::ImageCnnConfig model_config;
  model_config.image_size = 8;
  model_config.num_classes = 3;
  model_config.conv1_channels = 4;
  model_config.conv2_channels = 8;
  model_config.hidden = 16;
  const nn::ModelFactory factory = [model_config] {
    return nn::make_image_cnn(model_config);
  };
  FedAvgConfig config = fast_config(20);
  config.training.epochs = 2;
  config.training.sgd.learning_rate = 0.1;
  const core::RunResult result = run_fedavg(dataset, factory, config);
  // 3-class problem: random is ~0.33; trained must be clearly better.
  EXPECT_GT(result.final_accuracy(), 0.5);
}

TEST(FedAvg, EvaluateRecordFields) {
  const auto dataset = small_dataset();
  FedAvgServer server(dataset, small_factory(), fast_config());
  server.run_round(1);
  const core::RoundRecord record = server.evaluate(1);
  EXPECT_EQ(record.round, 1u);
  EXPECT_GT(record.loss, 0.0);
  EXPECT_EQ(record.tangle_size, 0u);  // not a tangle run
}

}  // namespace
}  // namespace tanglefl::fedavg
