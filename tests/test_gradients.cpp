// Numerical gradient checks: for every layer type, compare the analytic
// backward pass against central finite differences of a scalarized forward
// pass. This is the ground-truth test for the NN substrate — if these pass,
// training dynamics are trustworthy.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "support/rng.hpp"

namespace tanglefl::nn {
namespace {

/// Fills a tensor with small random values.
void randomize(Tensor& t, Rng& rng, float scale = 0.5f) {
  for (auto& v : t.values()) v = static_cast<float>(rng.normal()) * scale;
}

/// Scalarizes an output tensor with fixed random coefficients so that
/// d(scalar)/d(output) = coefficients.
struct Scalarizer {
  Tensor coefficients;

  explicit Scalarizer(const Tensor& shape_like, Rng& rng)
      : coefficients(shape_like.shape()) {
    randomize(coefficients, rng, 1.0f);
  }

  float operator()(const Tensor& out) const {
    float acc = 0.0f;
    for (std::size_t i = 0; i < out.size(); ++i) {
      acc += out[i] * coefficients[i];
    }
    return acc;
  }
};

constexpr double kEpsilon = 1e-3;
constexpr double kTolerance = 2e-2;  // relative; float32 numerics

/// Checks d(scalar)/d(value) for one scalar location `target` against the
/// analytic gradient `analytic`.
void expect_close(double analytic, double numeric, const char* what,
                  std::size_t index) {
  // Central differences on float32 forwards carry ~1e-7/(2*eps) absolute
  // noise; accept tiny gradients on absolute grounds, larger ones on
  // relative grounds.
  if (std::abs(analytic - numeric) < 5e-4) return;
  const double denom = std::max({std::abs(analytic), std::abs(numeric), 1e-4});
  EXPECT_LT(std::abs(analytic - numeric) / denom, kTolerance)
      << what << " grad mismatch at flat index " << index << ": analytic="
      << analytic << " numeric=" << numeric;
}

/// Full check of one layer: input gradient plus every parameter gradient.
void check_layer(Layer& layer, Tensor input, Rng& rng,
                 bool check_input_grad = true) {
  const Tensor out = layer.forward(input, /*training=*/false);
  const Scalarizer scalarize(out, rng);

  // Analytic gradients: backward reads what a training forward cached.
  for (Tensor* g : layer.gradients()) g->zero();
  (void)layer.forward(input, /*training=*/true);
  const Tensor dinput = layer.backward(scalarize.coefficients);
  const std::vector<Tensor*> params = layer.parameters();
  const std::vector<Tensor*> grads = layer.gradients();

  // Numeric input gradient (sampled positions to keep runtime bounded).
  if (check_input_grad) {
    const std::size_t stride = std::max<std::size_t>(1, input.size() / 24);
    for (std::size_t i = 0; i < input.size(); i += stride) {
      const float saved = input[i];
      input[i] = saved + static_cast<float>(kEpsilon);
      const float up = scalarize(layer.forward(input, false));
      input[i] = saved - static_cast<float>(kEpsilon);
      const float down = scalarize(layer.forward(input, false));
      input[i] = saved;
      const double numeric = (up - down) / (2 * kEpsilon);
      expect_close(dinput[i], numeric, "input", i);
    }
  }

  // Numeric parameter gradients.
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& param = *params[p];
    const Tensor& grad = *grads[p];
    const std::size_t stride = std::max<std::size_t>(1, param.size() / 24);
    for (std::size_t i = 0; i < param.size(); i += stride) {
      const float saved = param[i];
      param[i] = saved + static_cast<float>(kEpsilon);
      const float up = scalarize(layer.forward(input, false));
      param[i] = saved - static_cast<float>(kEpsilon);
      const float down = scalarize(layer.forward(input, false));
      param[i] = saved;
      const double numeric = (up - down) / (2 * kEpsilon);
      expect_close(grad[i], numeric, "param", i);
    }
  }
}

TEST(Gradients, Linear) {
  Rng rng(1);
  Linear layer(5, 4);
  layer.init(rng);
  Tensor input({3, 5});
  randomize(input, rng);
  check_layer(layer, std::move(input), rng);
}

TEST(Gradients, ReLU) {
  Rng rng(2);
  ReLU layer;
  Tensor input({4, 6});
  randomize(input, rng, 1.0f);
  // Nudge values away from the kink at 0 where the derivative is undefined.
  for (auto& v : input.values()) {
    if (std::abs(v) < 0.05f) v = 0.1f;
  }
  check_layer(layer, std::move(input), rng);
}

TEST(Gradients, Conv2D) {
  Rng rng(3);
  Conv2D layer(2, 3, 3, 1, 1);
  layer.init(rng);
  Tensor input({2, 2, 5, 5});
  randomize(input, rng);
  check_layer(layer, std::move(input), rng);
}

TEST(Gradients, Conv2DStride2NoPad) {
  Rng rng(4);
  Conv2D layer(1, 2, 2, 2, 0);
  layer.init(rng);
  Tensor input({1, 1, 6, 6});
  randomize(input, rng);
  check_layer(layer, std::move(input), rng);
}

TEST(Gradients, MaxPool) {
  Rng rng(5);
  MaxPool2D layer(2);
  Tensor input({2, 2, 4, 4});
  randomize(input, rng, 1.0f);
  check_layer(layer, std::move(input), rng);
}

TEST(Gradients, Flatten) {
  Rng rng(6);
  Flatten layer;
  Tensor input({2, 3, 2, 2});
  randomize(input, rng);
  check_layer(layer, std::move(input), rng);
}

TEST(Gradients, Embedding) {
  Rng rng(7);
  Embedding layer(10, 4);
  layer.init(rng);
  Tensor input({3, 5});
  for (auto& v : input.values()) {
    v = static_cast<float>(rng.uniform_index(10));
  }
  // Token ids are not differentiable: check parameters only.
  check_layer(layer, std::move(input), rng, /*check_input_grad=*/false);
}

TEST(Gradients, LSTM) {
  Rng rng(8);
  LSTM layer(3, 4);
  layer.init(rng);
  Tensor input({2, 5, 3});
  randomize(input, rng);
  check_layer(layer, std::move(input), rng);
}

TEST(Gradients, StackedLSTM) {
  Rng rng(9);
  LSTM layer(4, 4);
  layer.init(rng);
  Tensor input({1, 3, 4});
  randomize(input, rng);
  check_layer(layer, std::move(input), rng);
}

TEST(Gradients, LastTimestep) {
  Rng rng(10);
  LastTimestep layer;
  Tensor input({2, 4, 3});
  randomize(input, rng);
  check_layer(layer, std::move(input), rng);
}

TEST(Gradients, SoftmaxCrossEntropyMatchesNumeric) {
  Rng rng(11);
  Tensor logits({3, 5});
  randomize(logits, rng, 1.0f);
  const std::vector<std::int32_t> labels = {1, 4, 0};

  const LossResult result = softmax_cross_entropy(logits, labels);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + static_cast<float>(kEpsilon);
    const float up = softmax_cross_entropy_loss(logits, labels);
    logits[i] = saved - static_cast<float>(kEpsilon);
    const float down = softmax_cross_entropy_loss(logits, labels);
    logits[i] = saved;
    const double numeric = (up - down) / (2 * kEpsilon);
    expect_close(result.grad[i], numeric, "logits", i);
  }
}

TEST(Gradients, FullCnnEndToEnd) {
  // End-to-end: CNN forward + cross-entropy, check a sample of parameter
  // gradients through the whole stack.
  Rng rng(12);
  ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.conv1_channels = 2;
  config.conv2_channels = 3;
  config.hidden = 8;
  Model model = make_image_cnn(config);
  model.init(rng);

  Tensor input({2, 1, 8, 8});
  randomize(input, rng);
  const std::vector<std::int32_t> labels = {0, 2};

  model.zero_gradients();
  const Tensor logits = model.forward(input, /*training=*/true);
  const LossResult loss = softmax_cross_entropy(logits, labels);
  model.backward(loss.grad);
  const std::vector<float> analytic = model.get_gradients();
  std::vector<float> params = model.get_parameters();

  const std::size_t stride = std::max<std::size_t>(1, params.size() / 40);
  for (std::size_t i = 0; i < params.size(); i += stride) {
    const float saved = params[i];
    params[i] = saved + static_cast<float>(kEpsilon);
    model.set_parameters(params);
    const float up = softmax_cross_entropy_loss(model.forward(input, false), labels);
    params[i] = saved - static_cast<float>(kEpsilon);
    model.set_parameters(params);
    const float down = softmax_cross_entropy_loss(model.forward(input, false), labels);
    params[i] = saved;
    model.set_parameters(params);
    const double numeric = (up - down) / (2 * kEpsilon);
    expect_close(analytic[i], numeric, "cnn-param", i);
  }
}

TEST(Gradients, FullLstmEndToEnd) {
  Rng rng(13);
  CharLstmConfig config;
  config.vocab_size = 6;
  config.seq_length = 4;
  config.embedding_dim = 3;
  config.hidden_dim = 5;
  config.lstm_layers = 2;
  Model model = make_char_lstm(config);
  model.init(rng);

  Tensor input({2, 4});
  for (auto& v : input.values()) {
    v = static_cast<float>(rng.uniform_index(6));
  }
  const std::vector<std::int32_t> labels = {2, 5};

  model.zero_gradients();
  const Tensor logits = model.forward(input, /*training=*/true);
  const LossResult loss = softmax_cross_entropy(logits, labels);
  model.backward(loss.grad);
  const std::vector<float> analytic = model.get_gradients();
  std::vector<float> params = model.get_parameters();

  const std::size_t stride = std::max<std::size_t>(1, params.size() / 40);
  for (std::size_t i = 0; i < params.size(); i += stride) {
    const float saved = params[i];
    params[i] = saved + static_cast<float>(kEpsilon);
    model.set_parameters(params);
    const float up = softmax_cross_entropy_loss(model.forward(input, false), labels);
    params[i] = saved - static_cast<float>(kEpsilon);
    model.set_parameters(params);
    const float down = softmax_cross_entropy_loss(model.forward(input, false), labels);
    params[i] = saved;
    model.set_parameters(params);
    const double numeric = (up - down) / (2 * kEpsilon);
    expect_close(analytic[i], numeric, "lstm-param", i);
  }
}

}  // namespace
}  // namespace tanglefl::nn
