#include "core/biased_walk.hpp"

#include <gtest/gtest.h>

#include "core/node.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "node_harness.hpp"

namespace tanglefl::core {
namespace {

/// Fixture with an MLP factory, one "good" and one "bad" payload, and a
/// validation split the good payload fits.
struct Fixture {
  nn::ModelFactory factory = [] { return nn::make_mlp(2, 4, 2); };
  tangle::ModelStore store;
  tangle::Tangle tangle;
  data::DataSplit validation;
  NodeHarness harness{store, factory};

  Fixture() : tangle(make_genesis(store, factory)) {
    validation.features = nn::Tensor({8, 2});
    validation.labels.resize(8);
    for (std::size_t i = 0; i < 8; ++i) {
      const bool positive = i % 2 == 0;
      validation.features.at(i, 0) = positive ? 3.0f : -3.0f;
      validation.labels[i] = positive ? 1 : 0;
    }
  }

  static tangle::Tangle make_genesis(tangle::ModelStore& store,
                                     const nn::ModelFactory& factory) {
    nn::Model model = factory();
    Rng rng(1);
    model.init(rng);
    const auto added = store.add(model.get_parameters());
    return tangle::Tangle(added.id, added.hash);
  }

  /// A model trained to fit the validation data.
  nn::ParamVector good_params() {
    nn::Model model = factory();
    Rng rng(2);
    model.init(rng);
    data::TrainConfig config;
    config.epochs = 30;
    config.sgd.learning_rate = 0.3;
    Rng train_rng(3);
    (void)data::train_local(model, validation, config, train_rng);
    return model.get_parameters();
  }

  /// Random-noise parameters (high loss everywhere).
  nn::ParamVector bad_params() {
    nn::Model model = factory();
    nn::ParamVector params(model.parameter_count());
    Rng rng(4);
    for (auto& p : params) p = static_cast<float>(rng.normal()) * 3.0f;
    return params;
  }

  tangle::TxIndex add(std::vector<tangle::TxIndex> parents,
                      nn::ParamVector params, std::uint64_t round) {
    const auto added = store.add(std::move(params));
    return tangle.add_transaction(parents, added.id, added.hash, round);
  }

  /// Loss cache probing `split` through the harness's eval engine.
  LocalLossCache loss_cache(const data::DataSplit& split) {
    return LocalLossCache(harness.eval(), store,
                          split.empty() ? nullptr
                                        : harness.eval().prepare(split));
  }

  /// `count` biased walks over the whole ledger.
  std::vector<tangle::TxIndex> walk(std::size_t count, LocalLossCache& cache,
                                    Rng& rng, const BiasedWalkConfig& config) {
    const tangle::TangleView view = tangle.view();
    return biased_select_tips(view, *tangle::ViewCacheEntry::build(view),
                              count, cache, rng, config);
  }
};

TEST(LocalLossCache, MemoizesEvaluations) {
  Fixture f;
  const tangle::TxIndex a = f.add({0}, f.good_params(), 1);
  LocalLossCache cache = f.loss_cache(f.validation);
  const tangle::TangleView view = f.tangle.view();
  const double first = cache.loss(view, a);
  const double second = cache.loss(view, a);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(cache.evaluations(), 1u);
}

TEST(LocalLossCache, GoodModelScoresLower) {
  Fixture f;
  const tangle::TxIndex good = f.add({0}, f.good_params(), 1);
  const tangle::TxIndex bad = f.add({0}, f.bad_params(), 1);
  LocalLossCache cache = f.loss_cache(f.validation);
  const tangle::TangleView view = f.tangle.view();
  EXPECT_LT(cache.loss(view, good), cache.loss(view, bad));
}

TEST(LocalLossCache, EmptyValidationIsZero) {
  Fixture f;
  const tangle::TxIndex a = f.add({0}, f.bad_params(), 1);
  const data::DataSplit empty;
  LocalLossCache cache = f.loss_cache(empty);
  EXPECT_DOUBLE_EQ(cache.loss(f.tangle.view(), a), 0.0);
  EXPECT_EQ(cache.evaluations(), 0u);
}

TEST(BiasedWalk, StrongBiasPrefersFittingBranch) {
  Fixture f;
  const tangle::TxIndex good = f.add({0}, f.good_params(), 1);
  const tangle::TxIndex bad = f.add({0}, f.bad_params(), 1);
  (void)bad;

  LocalLossCache cache = f.loss_cache(f.validation);
  Rng rng(5);
  BiasedWalkConfig config;
  config.alpha = 0.0;
  config.beta = 10.0;
  int good_hits = 0;
  const auto tips = f.walk(200, cache, rng, config);
  for (const tangle::TxIndex t : tips) {
    if (t == good) ++good_hits;
  }
  EXPECT_GT(good_hits, 190);
}

TEST(BiasedWalk, ZeroBetaMatchesStructuralWalkDistribution) {
  Fixture f;
  f.add({0}, f.good_params(), 1);
  f.add({0}, f.bad_params(), 1);

  LocalLossCache cache = f.loss_cache(f.validation);
  Rng rng(6);
  BiasedWalkConfig config;
  config.alpha = 0.0;
  config.beta = 0.0;
  int first_hits = 0;
  const auto tips = f.walk(600, cache, rng, config);
  for (const tangle::TxIndex t : tips) {
    if (t == 1) ++first_hits;
  }
  // Symmetric fork, no bias: ~50/50.
  EXPECT_NEAR(first_hits, 300, 75);
  // beta == 0 must not trigger any model evaluation.
  EXPECT_EQ(cache.evaluations(), 0u);
}

TEST(BiasedWalk, ReachesTipsOnly) {
  Fixture f;
  const tangle::TxIndex a = f.add({0}, f.good_params(), 1);
  f.add({a}, f.bad_params(), 2);
  f.add({a}, f.good_params(), 2);

  LocalLossCache cache = f.loss_cache(f.validation);
  Rng rng(7);
  const auto tip_set = f.tangle.view().tips();
  const auto tips = f.walk(50, cache, rng, {0.0, 2.0});
  for (const tangle::TxIndex t : tips) {
    EXPECT_TRUE(std::find(tip_set.begin(), tip_set.end(), t) !=
                tip_set.end());
  }
}

TEST(BiasedWalk, NodeConfigIntegration) {
  // HonestNode with use_biased_walk runs end-to-end and still publishes.
  Fixture f;
  f.add({0}, f.good_params(), 1);
  f.add({0}, f.bad_params(), 1);

  data::UserData user;
  user.user_id = "u";
  user.train = f.validation;
  user.test = f.validation;

  NodeConfig config;
  config.use_biased_walk = true;
  config.walk_loss_beta = 4.0;
  config.num_tips = 2;
  config.tip_sample_size = 4;
  config.training.epochs = 4;
  config.training.sgd.learning_rate = 0.2;

  HonestNode node(config);
  const tangle::TangleView view = f.tangle.view();
  NodeContext context = f.harness.context(view, 2, 9);
  const auto publish = node.step(context, user);
  ASSERT_TRUE(publish.has_value());
}

TEST(MergeFederated, CombinesAndPrefixesUsers) {
  data::FemnistSynthConfig a_config;
  a_config.num_users = 3;
  a_config.num_classes = 4;
  a_config.image_size = 8;
  a_config.seed = 1;
  const auto a = data::make_femnist_synth(a_config);
  data::FemnistSynthConfig b_config = a_config;
  b_config.seed = 2;
  const auto b = data::make_femnist_synth(b_config);

  const std::vector<const data::FederatedDataset*> parts = {&a, &b};
  const auto merged =
      data::merge_federated("clusters", "CNN", 0.8, parts);
  EXPECT_EQ(merged.num_users(), 6u);
  EXPECT_EQ(merged.user(0).user_id.rfind("femnist-synth/", 0), 0u);
}

TEST(MergeFederated, EmptyThrows) {
  const std::vector<const data::FederatedDataset*> parts;
  EXPECT_THROW((void)data::merge_federated("x", "y", 0.8, parts),
               std::invalid_argument);
}

}  // namespace
}  // namespace tanglefl::core
