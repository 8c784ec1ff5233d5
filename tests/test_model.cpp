#include "nn/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "nn/model_zoo.hpp"
#include "nn/params.hpp"

namespace tanglefl::nn {
namespace {

TEST(Model, ParameterCountMatchesLayers) {
  Model model = make_mlp(4, 8, 3);
  // Linear(4,8): 4*8+8 = 40; Linear(8,3): 8*3+3 = 27.
  EXPECT_EQ(model.parameter_count(), 67u);
}

TEST(Model, GetSetParametersRoundTrip) {
  Rng rng(1);
  Model model = make_mlp(3, 5, 2);
  model.init(rng);
  const std::vector<float> params = model.get_parameters();
  EXPECT_EQ(params.size(), model.parameter_count());

  Model other = make_mlp(3, 5, 2);
  other.set_parameters(params);
  EXPECT_EQ(other.get_parameters(), params);
}

TEST(Model, SetParametersWrongSizeThrows) {
  Model model = make_mlp(3, 5, 2);
  std::vector<float> too_short(model.parameter_count() - 1, 0.0f);
  EXPECT_THROW(model.set_parameters(too_short), std::invalid_argument);
  std::vector<float> too_long(model.parameter_count() + 1, 0.0f);
  EXPECT_THROW(model.set_parameters(too_long), std::invalid_argument);
}

TEST(Model, InitIsDeterministicInSeed) {
  Model a = make_mlp(3, 4, 2);
  Model b = make_mlp(3, 4, 2);
  Rng rng_a(7), rng_b(7);
  a.init(rng_a);
  b.init(rng_b);
  EXPECT_EQ(a.get_parameters(), b.get_parameters());
}

TEST(Model, InitDiffersAcrossSeeds) {
  Model a = make_mlp(3, 4, 2);
  Model b = make_mlp(3, 4, 2);
  Rng rng_a(7), rng_b(8);
  a.init(rng_a);
  b.init(rng_b);
  EXPECT_NE(a.get_parameters(), b.get_parameters());
}

TEST(Model, CloneCopiesParameters) {
  Rng rng(1);
  Model model = make_mlp(3, 4, 2);
  model.init(rng);
  Model copy = model.clone();
  EXPECT_EQ(copy.get_parameters(), model.get_parameters());

  // Mutating the copy must not affect the original.
  std::vector<float> zeros(copy.parameter_count(), 0.0f);
  copy.set_parameters(zeros);
  EXPECT_NE(copy.get_parameters(), model.get_parameters());
}

TEST(Model, CloneForwardAgrees) {
  Rng rng(2);
  Model model = make_mlp(3, 4, 2);
  model.init(rng);
  Model copy = model.clone();

  Tensor x({2, 3});
  for (auto& v : x.values()) v = static_cast<float>(rng.normal());
  const Tensor ya = model.forward(x, false);
  const Tensor yb = copy.forward(x, false);
  EXPECT_EQ(ya.shape(), yb.shape());
  EXPECT_TRUE(std::ranges::equal(ya.values(), yb.values()));
}

TEST(Model, BackwardSkippingFirstInputGradientKeepsParameterGradients) {
  // Model::backward does not compute the first layer's input gradient
  // (for the CNN, conv1's W^T x dy and scatter). The parameter gradients
  // must be the bits a full layer-by-layer backward accumulates.
  ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  Model model = make_image_cnn(config);
  Rng rng(9);
  model.init(rng);
  Model full = model.clone();
  Tensor x({2, 1, 8, 8});
  for (auto& v : x.values()) v = static_cast<float>(rng.normal());
  Tensor grad({2, 3});
  for (auto& v : grad.values()) v = static_cast<float>(rng.normal());

  (void)model.forward(x, true);
  model.zero_gradients();
  model.backward(grad);

  (void)full.forward(x, true);
  full.zero_gradients();
  Tensor g = grad;
  for (std::size_t i = full.layer_count(); i-- > 0;) {
    g = full.layer(i).backward(g);
  }
  EXPECT_EQ(g.shape(), x.shape());  // the full pass did compute conv1's dx

  const std::vector<float> skipped = model.get_gradients();
  const std::vector<float> computed = full.get_gradients();
  ASSERT_EQ(skipped.size(), computed.size());
  EXPECT_EQ(std::memcmp(skipped.data(), computed.data(),
                        skipped.size() * sizeof(float)),
            0);
}

TEST(Model, ZeroGradientsClearsAll) {
  Rng rng(3);
  Model model = make_mlp(3, 4, 2);
  model.init(rng);
  Tensor x({1, 3}, {1, 2, 3});
  (void)model.forward(x, true);
  model.backward(Tensor({1, 2}, {1, 1}));
  bool any_nonzero = false;
  for (const float g : model.get_gradients()) {
    if (g != 0.0f) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  model.zero_gradients();
  for (const float g : model.get_gradients()) EXPECT_EQ(g, 0.0f);
}

TEST(Model, GradientsAccumulateAcrossBackwards) {
  Rng rng(4);
  Model model = make_mlp(2, 3, 2);
  model.init(rng);
  Tensor x({1, 2}, {1, -1});

  model.zero_gradients();
  (void)model.forward(x, true);
  model.backward(Tensor({1, 2}, {1, 0}));
  const std::vector<float> once = model.get_gradients();

  (void)model.forward(x, true);
  model.backward(Tensor({1, 2}, {1, 0}));
  const std::vector<float> twice = model.get_gradients();
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-5f);
  }
}

TEST(Model, EvalForwardLeavesTheTrainingCacheAlone) {
  // An eval forward between a training forward and its backward must not
  // change the gradients: Conv2D, ReLU and Linear keep no copy of an eval
  // input. Flatten records only the shape, which both batches share.
  Rng rng(5);
  Model model;
  model.emplace<Conv2D>(1, 2, 3, 1, 1);
  model.emplace<ReLU>();
  model.emplace<Flatten>();
  model.emplace<Linear>(2 * 6 * 6, 4);
  model.emplace<ReLU>();
  model.emplace<Linear>(4, 3);
  model.init(rng);
  Model reference = model.clone();
  Tensor a({2, 1, 6, 6}), b({2, 1, 6, 6}), grad({2, 3});
  for (Tensor* t : {&a, &b, &grad}) {
    for (auto& v : t->values()) v = static_cast<float>(rng.normal());
  }

  model.zero_gradients();
  (void)model.forward(a, true);
  (void)model.forward(b, false);
  model.backward(grad);

  reference.zero_gradients();
  (void)reference.forward(a, true);
  reference.backward(grad);

  const std::vector<float> got = model.get_gradients();
  const std::vector<float> want = reference.get_gradients();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
}

TEST(Model, SummaryListsLayersAndParams) {
  Model model = make_mlp(3, 4, 2);
  const std::string summary = model.summary();
  EXPECT_NE(summary.find("Linear -> ReLU -> Linear"), std::string::npos);
  EXPECT_NE(summary.find("params"), std::string::npos);
}

TEST(ModelZoo, ImageCnnOutputShape) {
  ImageCnnConfig config;
  config.image_size = 12;
  config.num_classes = 7;
  Model model = make_image_cnn(config);
  Rng rng(5);
  model.init(rng);
  const Tensor logits = model.forward(Tensor({3, 1, 12, 12}), false);
  EXPECT_EQ(logits.dim(0), 3u);
  EXPECT_EQ(logits.dim(1), 7u);
}

TEST(ModelZoo, ImageCnnWithDropout) {
  ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 2;
  config.dropout = 0.5;
  Model model = make_image_cnn(config);
  Rng rng(6);
  model.init(rng);
  // Dropout active in training mode: repeated forwards differ.
  Tensor x({1, 1, 8, 8});
  for (auto& v : x.values()) v = 1.0f;
  const Tensor a = model.forward(x, true);
  const Tensor b = model.forward(x, true);
  EXPECT_FALSE(std::ranges::equal(a.values(), b.values()));
  // Evaluation mode: deterministic.
  const Tensor c = model.forward(x, false);
  const Tensor d = model.forward(x, false);
  EXPECT_EQ(c.shape(), d.shape());
  EXPECT_TRUE(std::ranges::equal(c.values(), d.values()));
}

TEST(ModelZoo, CharLstmOutputShape) {
  CharLstmConfig config;
  config.vocab_size = 11;
  config.seq_length = 6;
  Model model = make_char_lstm(config);
  Rng rng(7);
  model.init(rng);
  Tensor tokens({2, 6});
  for (auto& v : tokens.values()) v = 3.0f;
  const Tensor logits = model.forward(tokens, false);
  EXPECT_EQ(logits.dim(0), 2u);
  EXPECT_EQ(logits.dim(1), 11u);
}

TEST(ModelZoo, StackedLstmHasMoreParams) {
  CharLstmConfig one;
  one.lstm_layers = 1;
  CharLstmConfig two;
  two.lstm_layers = 2;
  EXPECT_GT(make_char_lstm(two).parameter_count(),
            make_char_lstm(one).parameter_count());
}

TEST(Params, UnweightedAverage) {
  const std::vector<ParamVector> params = {{1, 2, 3}, {3, 4, 5}};
  const ParamVector avg = average_params(params);
  EXPECT_EQ(avg, (ParamVector{2, 3, 4}));
}

TEST(Params, AverageSingleIsIdentity) {
  const std::vector<ParamVector> params = {{5, -1}};
  EXPECT_EQ(average_params(params), (ParamVector{5, -1}));
}

TEST(Params, AverageEmptyThrows) {
  const std::vector<ParamVector> params;
  EXPECT_THROW((void)average_params(params), std::invalid_argument);
}

TEST(Params, AverageSizeMismatchThrows) {
  const std::vector<ParamVector> params = {{1, 2}, {1, 2, 3}};
  EXPECT_THROW((void)average_params(params), std::invalid_argument);
}

TEST(Params, WeightedAverage) {
  const std::vector<ParamVector> params = {{0, 0}, {10, 20}};
  const std::vector<double> weights = {3, 1};
  const ParamVector avg = weighted_average_params(params, weights);
  EXPECT_NEAR(avg[0], 2.5f, 1e-6f);
  EXPECT_NEAR(avg[1], 5.0f, 1e-6f);
}

TEST(Params, WeightedAverageRejectsBadWeights) {
  const std::vector<ParamVector> params = {{1}, {2}};
  EXPECT_THROW(
      (void)weighted_average_params(params, std::vector<double>{1, -1}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)weighted_average_params(params, std::vector<double>{0, 0}),
      std::invalid_argument);
  EXPECT_THROW((void)weighted_average_params(params, std::vector<double>{1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tanglefl::nn
