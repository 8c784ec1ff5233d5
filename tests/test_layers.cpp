// Layer-level behavioural tests complementing the numerical gradient
// checks: output shapes, caching semantics, dropout statistics, cloning,
// and the edge cases (batch 1, sequence 1, stride != window).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "nn/layer.hpp"

namespace tanglefl::nn {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (auto& v : t.values()) v = static_cast<float>(rng.normal());
  return t;
}

TEST(LinearLayer, OutputShape) {
  Linear layer(5, 3);
  Rng rng(1);
  layer.init(rng);
  const Tensor y = layer.forward(random_tensor({7, 5}, 2), false);
  EXPECT_EQ(y.dim(0), 7u);
  EXPECT_EQ(y.dim(1), 3u);
}

TEST(LinearLayer, BatchOfOne) {
  Linear layer(4, 2);
  Rng rng(1);
  layer.init(rng);
  const Tensor y = layer.forward(random_tensor({1, 4}, 2), false);
  EXPECT_EQ(y.dim(0), 1u);
}

TEST(LinearLayer, BiasInitializedToZero) {
  Linear layer(4, 6);
  Rng rng(1);
  layer.init(rng);
  for (const float b : layer.bias().values()) EXPECT_EQ(b, 0.0f);
}

TEST(LinearLayer, ZeroInputGivesBias) {
  Linear layer(3, 2);
  Rng rng(1);
  layer.init(rng);
  // Force known bias values.
  std::vector<Tensor*> params = layer.parameters();
  params[1]->values()[0] = 0.5f;
  params[1]->values()[1] = -0.25f;
  const Tensor y = layer.forward(Tensor({1, 3}), false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), -0.25f);
}

TEST(ReLULayer, ClampsNegatives) {
  ReLU layer;
  const Tensor x({1, 4}, {-1.0f, 0.0f, 2.0f, -0.5f});
  const Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLULayer, BackwardKeepsNanSignedZeroAndDenormalSemantics) {
  // The gradient passes where the input is not <= 0: a NaN input passes
  // it, -0 and +0 zero it (to +0), a denormal passes it. Bit patterns
  // pinned from the branching loop the select form replaced.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denormal = std::numeric_limits<float>::denorm_min();
  ReLU layer;
  const Tensor x({1, 6}, {nan, -0.0f, 0.0f, denormal, 1.0f, -1.0f});
  (void)layer.forward(x, true);
  const Tensor g({1, 6}, {2.0f, -3.0f, 4.0f, -5.0f, 6.0f, 7.0f});
  const Tensor dx = layer.backward(g);
  const std::uint32_t want[] = {0x40000000u, 0x00000000u, 0x00000000u,
                                0xc0a00000u, 0x40c00000u, 0x00000000u};
  ASSERT_EQ(dx.size(), std::size(want));
  for (std::size_t i = 0; i < dx.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(dx[i]), want[i]) << "at " << i;
  }
}

TEST(DropoutLayer, EvalModeIsIdentity) {
  Dropout layer(0.5);
  Rng rng(3);
  layer.init(rng);
  const Tensor x = random_tensor({4, 8}, 4);
  const Tensor y = layer.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_TRUE(std::ranges::equal(y.values(), x.values()));
}

TEST(DropoutLayer, TrainModeDropsApproximatelyP) {
  Dropout layer(0.3);
  Rng rng(5);
  layer.init(rng);
  Tensor x({100, 100});
  x.fill(1.0f);
  const Tensor y = layer.forward(x, true);
  std::size_t zeros = 0;
  for (const float v : y.values()) {
    if (v == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(y.size()),
              0.3, 0.02);
}

TEST(DropoutLayer, SurvivorsRescaled) {
  Dropout layer(0.5);
  Rng rng(6);
  layer.init(rng);
  Tensor x({10, 10});
  x.fill(1.0f);
  const Tensor y = layer.forward(x, true);
  for (const float v : y.values()) {
    EXPECT_TRUE(v == 0.0f || std::abs(v - 2.0f) < 1e-6f);
  }
}

TEST(DropoutLayer, ExpectationPreserved) {
  Dropout layer(0.4);
  Rng rng(7);
  layer.init(rng);
  Tensor x({100, 100});
  x.fill(1.0f);
  const Tensor y = layer.forward(x, true);
  const float sum =
      std::accumulate(y.values().begin(), y.values().end(), 0.0f);
  EXPECT_NEAR(sum / static_cast<float>(y.size()), 1.0f, 0.05f);
}

TEST(DropoutLayer, ZeroProbabilityIsIdentityInTraining) {
  Dropout layer(0.0);
  Rng rng(8);
  layer.init(rng);
  const Tensor x = random_tensor({3, 3}, 9);
  const Tensor y = layer.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_TRUE(std::ranges::equal(y.values(), x.values()));
}

TEST(Conv2DLayer, ShapeWithStrideAndPadding) {
  Conv2D layer(1, 2, 3, 2, 1);
  Rng rng(1);
  layer.init(rng);
  const Tensor y = layer.forward(random_tensor({2, 1, 9, 9}, 2), false);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 2u);
  EXPECT_EQ(y.dim(2), 5u);  // (9 + 2 - 3) / 2 + 1
  EXPECT_EQ(y.dim(3), 5u);
}

TEST(MaxPoolLayer, StrideSmallerThanWindow) {
  MaxPool2D layer(3, 1);
  const Tensor y = layer.forward(random_tensor({1, 1, 5, 5}, 3), false);
  EXPECT_EQ(y.dim(2), 3u);
  EXPECT_EQ(y.dim(3), 3u);
}

TEST(MaxPoolLayer, DefaultStrideEqualsWindow) {
  MaxPool2D layer(2);
  const Tensor y = layer.forward(random_tensor({1, 2, 6, 6}, 4), false);
  EXPECT_EQ(y.dim(2), 3u);
}

TEST(FlattenLayer, RoundTripShape) {
  Flatten layer;
  const Tensor x = random_tensor({3, 2, 4, 4}, 5);
  const Tensor y = layer.forward(x, false);
  EXPECT_EQ(y.dim(0), 3u);
  EXPECT_EQ(y.dim(1), 32u);
  const Tensor dx = layer.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(EmbeddingLayer, LooksUpRows) {
  Embedding layer(5, 3);
  Rng rng(6);
  layer.init(rng);
  Tensor tokens({1, 2});
  tokens.at(0, 0) = 4.0f;
  tokens.at(0, 1) = 0.0f;
  const Tensor y = layer.forward(tokens, false);
  // Row 4 and row 0 of the weight matrix.
  const Tensor& w = *layer.parameters()[0];
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(y.at(0, 0, d), w.at(4, d));
    EXPECT_FLOAT_EQ(y.at(0, 1, d), w.at(0, d));
  }
}

TEST(LstmLayer, SequenceOfOne) {
  LSTM layer(3, 4);
  Rng rng(7);
  layer.init(rng);
  const Tensor y = layer.forward(random_tensor({2, 1, 3}, 8), false);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 1u);
  EXPECT_EQ(y.dim(2), 4u);
}

TEST(LstmLayer, HiddenBounded) {
  // tanh(c) * sigmoid(o) is bounded by 1 in magnitude.
  LSTM layer(4, 6);
  Rng rng(9);
  layer.init(rng);
  const Tensor y = layer.forward(random_tensor({3, 10, 4}, 10), false);
  for (const float v : y.values()) {
    EXPECT_LE(std::abs(v), 1.0f);
  }
}

TEST(LstmLayer, ForgetGateBiasInitialized) {
  LSTM layer(2, 3);
  Rng rng(11);
  layer.init(rng);
  const Tensor& bias = *layer.parameters()[2];
  // Layout [i | f | g | o]: forget block is ones, others zero.
  for (std::size_t h = 0; h < 3; ++h) {
    EXPECT_EQ(bias[h], 0.0f);
    EXPECT_EQ(bias[3 + h], 1.0f);
    EXPECT_EQ(bias[6 + h], 0.0f);
    EXPECT_EQ(bias[9 + h], 0.0f);
  }
}

TEST(LastTimestepLayer, PicksFinalStep) {
  LastTimestep layer;
  Tensor x({1, 3, 2});
  x.at(0, 2, 0) = 7.0f;
  x.at(0, 2, 1) = -3.0f;
  const Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), -3.0f);
}

TEST(AllLayers, ClonePreservesForward) {
  Rng rng(12);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Linear>(6, 4));
  layers.push_back(std::make_unique<Conv2D>(1, 2, 3, 1, 1));
  layers.push_back(std::make_unique<LSTM>(3, 4));
  layers.push_back(std::make_unique<Embedding>(8, 3));

  for (auto& layer : layers) {
    Rng init = rng.split(reinterpret_cast<std::uintptr_t>(layer.get()));
    layer->init(init);
    const auto copy = layer->clone();

    Tensor input;
    if (layer->name() == "Linear") input = random_tensor({2, 6}, 1);
    else if (layer->name() == "Conv2D") input = random_tensor({1, 1, 6, 6}, 2);
    else if (layer->name() == "LSTM") input = random_tensor({2, 4, 3}, 3);
    else {
      input = Tensor({2, 3});
      for (auto& v : input.values()) v = 2.0f;
    }
    const Tensor ya = layer->forward(input, false);
    const Tensor yb = copy->forward(input, false);
    EXPECT_EQ(ya.shape(), yb.shape()) << layer->name();
    EXPECT_TRUE(std::ranges::equal(ya.values(), yb.values()))
        << layer->name();
  }
}

}  // namespace
}  // namespace tanglefl::nn
