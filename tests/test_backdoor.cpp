#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "data/poison.hpp"
#include "data/training.hpp"
#include "nn/model_zoo.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl {
namespace {

data::DataSplit make_images(std::size_t n, std::size_t size,
                            std::int32_t label) {
  data::DataSplit split;
  split.features = nn::Tensor({n, 1, size, size});
  split.labels.assign(n, label);
  for (auto& v : split.features.values()) v = 0.2f;
  return split;
}

TEST(BackdoorData, ApplyStampsPatchAndRelabels) {
  const data::DataSplit clean = make_images(3, 6, 2);
  const data::BackdoorTrigger trigger{.target_class = 0,
                                      .patch_size = 2,
                                      .trigger_value = 1.0f};
  const data::DataSplit poisoned = data::apply_backdoor(clean, trigger);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(poisoned.labels[i], 0);
    EXPECT_FLOAT_EQ(poisoned.features.at(i, 0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(poisoned.features.at(i, 0, 1, 1), 1.0f);
    EXPECT_FLOAT_EQ(poisoned.features.at(i, 0, 3, 3), 0.2f);  // untouched
  }
  // Original untouched.
  EXPECT_FLOAT_EQ(clean.features.at(0, 0, 0, 0), 0.2f);
  EXPECT_EQ(clean.labels[0], 2);
}

TEST(BackdoorData, ApplyRequiresImages) {
  data::DataSplit flat;
  flat.features = nn::Tensor({2, 5});
  flat.labels = {0, 1};
  EXPECT_THROW((void)data::apply_backdoor(flat, {}), std::invalid_argument);
}

TEST(BackdoorData, TrainSplitPoisonsFraction) {
  const data::DataSplit clean = make_images(100, 6, 2);
  Rng rng(1);
  const data::BackdoorTrigger trigger{.target_class = 0,
                                      .patch_size = 2,
                                      .trigger_value = 1.0f};
  const data::DataSplit mixed =
      data::make_backdoor_train_split(clean, trigger, 0.4, rng);
  std::size_t poisoned = 0;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    if (mixed.labels[i] == 0) {
      ++poisoned;
      EXPECT_FLOAT_EQ(mixed.features.at(i, 0, 0, 0), 1.0f);
    } else {
      EXPECT_EQ(mixed.labels[i], 2);
      EXPECT_FLOAT_EQ(mixed.features.at(i, 0, 0, 0), 0.2f);
    }
  }
  EXPECT_EQ(poisoned, 40u);
}

TEST(BackdoorData, PatchClampedToImage) {
  const data::DataSplit tiny = make_images(1, 2, 1);
  const data::BackdoorTrigger trigger{.target_class = 0,
                                      .patch_size = 10,
                                      .trigger_value = 0.9f};
  const data::DataSplit poisoned = data::apply_backdoor(tiny, trigger);
  for (const float v : poisoned.features.values()) EXPECT_FLOAT_EQ(v, 0.9f);
}

TEST(BackdoorMetric, TrainedBackdoorIsDetected) {
  // Train a small CNN on half-poisoned data and check that the success
  // metric sees the backdoor while clean accuracy metrics do not.
  data::FemnistSynthConfig data_config;
  data_config.num_users = 2;
  data_config.num_classes = 3;
  data_config.image_size = 10;
  data_config.mean_samples_per_user = 120.0;
  data_config.seed = 11;
  const auto dataset = data::make_femnist_synth(data_config);

  const data::BackdoorTrigger trigger{.target_class = 1,
                                      .patch_size = 3,
                                      .trigger_value = 1.0f};
  Rng rng(2);
  const data::DataSplit poisoned_train = data::make_backdoor_train_split(
      dataset.user(0).train, trigger, 0.5, rng);

  nn::ImageCnnConfig model_config;
  model_config.image_size = 10;
  model_config.num_classes = 3;
  nn::Model model = nn::make_image_cnn(model_config);
  Rng init_rng(3);
  model.init(init_rng);
  data::TrainConfig train_config;
  train_config.epochs = 10;
  train_config.sgd.learning_rate = 0.08;
  Rng train_rng(4);
  (void)data::train_local(model, poisoned_train, train_config, train_rng);

  const double success =
      data::backdoor_success_rate(model, dataset.user(0).test, trigger);
  EXPECT_GT(success, 0.8);
  // Stealth: clean accuracy remains useful.
  EXPECT_GT(data::evaluate(model, dataset.user(0).train).accuracy, 0.6);
}

TEST(BackdoorMetric, CleanModelHasLowSuccess) {
  data::FemnistSynthConfig data_config;
  data_config.num_users = 2;
  data_config.num_classes = 4;
  data_config.image_size = 10;
  data_config.mean_samples_per_user = 80.0;
  data_config.seed = 12;
  const auto dataset = data::make_femnist_synth(data_config);

  nn::ImageCnnConfig model_config;
  model_config.image_size = 10;
  model_config.num_classes = 4;
  nn::Model model = nn::make_image_cnn(model_config);
  Rng init_rng(5);
  model.init(init_rng);
  data::TrainConfig train_config;
  train_config.epochs = 8;
  train_config.sgd.learning_rate = 0.08;
  Rng train_rng(6);
  (void)data::train_local(model, dataset.user(0).train, train_config,
                          train_rng);

  const data::BackdoorTrigger trigger{.target_class = 1,
                                      .patch_size = 2,
                                      .trigger_value = 1.0f};
  // A model never exposed to the trigger mostly ignores the patch.
  EXPECT_LT(data::backdoor_success_rate(model, dataset.user(0).test, trigger),
            0.6);
}

TEST(BackdoorSimulation, AttackRunsAndRecordsMetric) {
  data::FemnistSynthConfig data_config;
  data_config.num_users = 12;
  data_config.num_classes = 3;
  data_config.image_size = 8;
  data_config.mean_samples_per_user = 20.0;
  data_config.seed = 13;
  const auto dataset = data::make_femnist_synth(data_config);

  nn::ImageCnnConfig model_config;
  model_config.image_size = 8;
  model_config.num_classes = 3;
  model_config.conv1_channels = 2;
  model_config.conv2_channels = 4;
  model_config.hidden = 8;
  const nn::ModelFactory factory = [model_config] {
    return nn::make_image_cnn(model_config);
  };

  core::SimulationConfig config;
  config.rounds = 8;
  config.nodes_per_round = 4;
  config.eval_every = 8;
  config.eval_nodes_fraction = 0.5;
  config.node.training.sgd.learning_rate = 0.05;
  config.attack = core::AttackType::kBackdoor;
  config.malicious_fraction = 0.25;
  config.attack_start_round = 1;
  config.trigger = {.target_class = 1, .patch_size = 2, .trigger_value = 1.0f};
  config.seed = 14;

  core::TangleSimulation sim(dataset, factory, config);
  const core::RunResult result = sim.run();
  ASSERT_FALSE(result.history.empty());
  // Metric populated (some value in [0, 1]); malicious transactions landed.
  EXPECT_GE(result.history.back().backdoor_success, 0.0);
  EXPECT_LE(result.history.back().backdoor_success, 1.0);
  std::size_t malicious = 0;
  for (tangle::TxIndex i = 1; i < sim.tangle().size(); ++i) {
    if (sim.tangle().transaction(i).publisher == "malicious") ++malicious;
  }
  EXPECT_GT(malicious, 0u);
}

TEST(UniformTipSelection, ReturnsOnlyTips) {
  tangle::ModelStore store;
  const auto genesis = store.add({0.0f});
  tangle::Tangle tangle(genesis.id, genesis.hash);
  for (int i = 0; i < 5; ++i) {
    const auto added = store.add({static_cast<float>(i) + 1.0f});
    tangle.add_transaction(std::vector<tangle::TxIndex>{0}, added.id,
                           added.hash, 1);
  }
  Rng rng(1);
  tangle::TipSelectionConfig config;
  config.method = tangle::TipSelectionMethod::kUniform;
  const auto tips = tangle::select_tips(
      *tangle::ViewCacheEntry::build(tangle.view()), 100, rng, config);
  const auto tip_set = tangle.view().tips();
  std::vector<int> hits(tangle.size(), 0);
  for (const auto t : tips) {
    EXPECT_TRUE(std::find(tip_set.begin(), tip_set.end(), t) !=
                tip_set.end());
    ++hits[t];
  }
  // Roughly uniform across the 5 tips.
  for (const auto t : tip_set) EXPECT_GT(hits[t], 5);
}

}  // namespace
}  // namespace tanglefl
