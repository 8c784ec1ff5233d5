#include "core/node.hpp"

#include <gtest/gtest.h>

#include "nn/model_zoo.hpp"
#include "node_harness.hpp"
#include "tangle/model_store.hpp"

namespace tanglefl::core {
namespace {

using tangle::ModelStore;
using tangle::Tangle;
using tangle::TxIndex;

/// Small separable 2-feature task so nodes can actually improve models.
data::DataSplit make_separable(std::size_t n, Rng& rng, float margin = 2.0f) {
  data::DataSplit split;
  split.features = nn::Tensor({n, 2});
  split.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    split.features.at(i, 0) =
        static_cast<float>(rng.normal()) + (positive ? margin : -margin);
    split.features.at(i, 1) = static_cast<float>(rng.normal());
    split.labels[i] = positive ? 1 : 0;
  }
  return split;
}

struct Fixture {
  nn::ModelFactory factory = [] { return nn::make_mlp(2, 6, 2); };
  ModelStore store;
  Tangle tangle;
  data::UserData user;
  NodeHarness harness{store, factory};

  Fixture() : tangle(make_genesis(store, factory)) {
    Rng rng(100);
    user.user_id = "node-under-test";
    user.train = make_separable(40, rng);
    user.test = make_separable(20, rng);
  }

  static Tangle make_genesis(ModelStore& store,
                             const nn::ModelFactory& factory) {
    nn::Model model = factory();
    Rng rng(55);
    model.init(rng);
    const auto added = store.add(model.get_parameters());
    return Tangle(added.id, added.hash);
  }

  /// Publishes a payload approving `parents`.
  TxIndex add(std::vector<TxIndex> parents, nn::ParamVector params,
              std::uint64_t round) {
    const auto added = store.add(std::move(params));
    return tangle.add_transaction(parents, added.id, added.hash, round);
  }

  /// A model trained well on the node's own data distribution.
  nn::ParamVector good_params(std::uint64_t seed, std::size_t epochs = 8) {
    nn::Model model = factory();
    Rng init(seed);
    model.init(init);
    data::TrainConfig config;
    config.epochs = epochs;
    config.sgd.learning_rate = 0.2;
    Rng rng(seed + 1);
    Rng data_rng(seed + 2);
    const data::DataSplit train = make_separable(60, data_rng);
    (void)data::train_local(model, train, config, rng);
    return model.get_parameters();
  }

  /// Standard-normal noise parameters (the Fig. 5 poison payload).
  nn::ParamVector poison_params(std::uint64_t seed) {
    nn::Model model = factory();
    nn::ParamVector params(model.parameter_count());
    Rng rng(seed);
    for (auto& p : params) p = static_cast<float>(rng.normal());
    return params;
  }

  NodeContext context(std::uint64_t round, const tangle::TangleView& view,
                      std::uint64_t seed = 9) {
    return harness.context(view, round, seed);
  }
};

TEST(HonestNode, PublishesWhenTrainingImproves) {
  Fixture f;
  NodeConfig config;
  config.training.epochs = 6;
  config.training.sgd.learning_rate = 0.2;
  HonestNode node(config);

  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.context(1, view);
  const auto publish = node.step(context, f.user);
  ASSERT_TRUE(publish.has_value());
  EXPECT_EQ(publish->parents.size(), 2u);
  for (const TxIndex p : publish->parents) EXPECT_EQ(p, 0u);
  EXPECT_EQ(publish->params.size(), f.factory().parameter_count());
}

TEST(HonestNode, AbstainsWhenNoImprovementPossible) {
  Fixture f;
  NodeConfig config;
  config.training.epochs = 0;  // Train() is a no-op -> w_new == w_avg == w_r
  HonestNode node(config);

  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.context(1, view);
  EXPECT_FALSE(node.step(context, f.user).has_value());
}

TEST(HonestNode, AbstainsWithoutTrainingData) {
  Fixture f;
  f.user.train = data::DataSplit{};
  HonestNode node(NodeConfig{});
  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.context(1, view);
  EXPECT_FALSE(node.step(context, f.user).has_value());
}

TEST(HonestNode, ChooseParentsBasicReturnsRequestedCount) {
  Fixture f;
  f.add({0}, f.good_params(1), 1);
  f.add({0}, f.good_params(2), 1);
  NodeConfig config;
  config.num_tips = 3;
  config.tip_sample_size = 3;
  HonestNode node(config);
  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.context(2, view);
  EXPECT_EQ(
      node.choose_parents(context, context.eval.prepare(f.user.test)).size(),
      3u);
}

TEST(HonestNode, RobustSelectionAvoidsPoisonTip) {
  Fixture f;
  // Three tips: two well-trained, one random-noise poison.
  const TxIndex good1 = f.add({0}, f.good_params(1), 1);
  const TxIndex good2 = f.add({0}, f.good_params(2), 1);
  const TxIndex poison = f.add({0}, f.poison_params(3), 1);

  NodeConfig config;
  config.num_tips = 2;
  config.tip_sample_size = 12;  // sample widely so all tips are seen
  config.tip_selection.alpha = 0.0;
  HonestNode node(config);

  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.context(2, view);
  const auto parents =
      node.choose_parents(context, context.eval.prepare(f.user.test));
  ASSERT_EQ(parents.size(), 2u);
  for (const TxIndex p : parents) {
    EXPECT_NE(p, poison);
    EXPECT_TRUE(p == good1 || p == good2);
  }
}

TEST(HonestNode, BasicSelectionCanPickPoisonTip) {
  // Without the defence (sample == tips) the poison tip gets selected with
  // its natural walk probability — this is the vulnerability of Algorithm 2
  // that Section III-E fixes.
  Fixture f;
  f.add({0}, f.good_params(1), 1);
  const TxIndex poison = f.add({0}, f.poison_params(3), 1);

  NodeConfig config;
  config.num_tips = 2;
  config.tip_sample_size = 2;
  config.tip_selection.alpha = 0.0;
  HonestNode node(config);

  const tangle::TangleView view = f.tangle.view();
  bool poison_selected = false;
  for (std::uint64_t seed = 0; seed < 16 && !poison_selected; ++seed) {
    NodeContext context = f.context(2, view, seed);
    for (const TxIndex p :
         node.choose_parents(context, context.eval.prepare(f.user.test))) {
      if (p == poison) poison_selected = true;
    }
  }
  EXPECT_TRUE(poison_selected);
}

TEST(HonestNode, RobustSelectionFillsWithBestWhenFewDistinctTips) {
  Fixture f;  // only genesis
  NodeConfig config;
  config.num_tips = 2;
  config.tip_sample_size = 6;
  HonestNode node(config);
  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.context(1, view);
  const auto parents =
      node.choose_parents(context, context.eval.prepare(f.user.test));
  EXPECT_EQ(parents, (std::vector<TxIndex>{0, 0}));
}

TEST(HonestNode, StepIsDeterministicInContextRng) {
  Fixture f;
  f.add({0}, f.good_params(1), 1);
  NodeConfig config;
  config.training.epochs = 2;
  config.training.sgd.learning_rate = 0.1;
  HonestNode node(config);
  const tangle::TangleView view = f.tangle.view();

  NodeContext a = f.context(2, view, 7);
  NodeContext b = f.context(2, view, 7);
  const auto pa = node.step(a, f.user);
  const auto pb = node.step(b, f.user);
  ASSERT_EQ(pa.has_value(), pb.has_value());
  if (pa) {
    EXPECT_EQ(pa->parents, pb->parents);
    EXPECT_EQ(pa->params, pb->params);
  }
}

TEST(RandomPoisonNode, AlwaysPublishesNoise) {
  Fixture f;
  RandomPoisonNode node(NodeConfig{});
  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.context(1, view);
  const auto publish = node.step(context, f.user);
  ASSERT_TRUE(publish.has_value());
  EXPECT_TRUE(node.is_malicious());

  // Standard normal: mean ~0, variance ~1.
  double sum = 0.0, sum_sq = 0.0;
  for (const float p : publish->params) {
    sum += p;
    sum_sq += static_cast<double>(p) * p;
  }
  const auto n = static_cast<double>(publish->params.size());
  EXPECT_NEAR(sum / n, 0.0, 0.3);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.4);
}

TEST(RandomPoisonNode, AttachesToViewTips) {
  Fixture f;
  const TxIndex a = f.add({0}, f.good_params(1), 1);
  RandomPoisonNode node(NodeConfig{});
  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.context(2, view);
  const auto publish = node.step(context, f.user);
  ASSERT_TRUE(publish.has_value());
  for (const TxIndex p : publish->parents) EXPECT_EQ(p, a);
}

TEST(LabelFlipNode, AbstainsWithoutSourceSamples) {
  Fixture f;
  LabelFlipNode node(NodeConfig{});
  data::UserData empty;
  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.context(1, view);
  EXPECT_FALSE(node.step(context, empty).has_value());
  EXPECT_TRUE(node.is_malicious());
}

TEST(LabelFlipNode, TrainsTowardTargetOnPoisonedData) {
  Fixture f;
  // Poisoned data: class-0 features labeled as class 1. A node training on
  // this and validating on it will publish a model that misclassifies.
  Rng rng(200);
  data::UserData poisoned;
  poisoned.train = make_separable(40, rng);
  poisoned.test = make_separable(20, rng);
  for (auto& label : poisoned.train.labels) label = 1;
  for (auto& label : poisoned.test.labels) label = 1;

  NodeConfig config;
  config.training.epochs = 6;
  config.training.sgd.learning_rate = 0.2;
  LabelFlipNode node(config);
  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.context(1, view);
  const auto publish = node.step(context, poisoned);
  ASSERT_TRUE(publish.has_value());

  // The published model predicts class 1 everywhere.
  nn::Model model = f.factory();
  model.set_parameters(publish->params);
  const double rate =
      data::targeted_misclassification_rate(model, f.user.test, 0, 1);
  EXPECT_GT(rate, 0.9);
}

}  // namespace
}  // namespace tanglefl::core
