#include "nn/privacy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/node.hpp"
#include "nn/model_zoo.hpp"
#include "node_harness.hpp"

namespace tanglefl::nn {
namespace {

double delta_norm(std::span<const float> a, std::span<const float> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

TEST(DpSanitize, ClipsLargeUpdates) {
  const ParamVector base(16, 0.0f);
  ParamVector params(16, 0.0f);
  params[0] = 100.0f;  // update norm 100

  Rng rng(1);
  const DpConfig config{.clip_norm = 1.0, .noise_multiplier = 0.0};
  const ParamVector out = dp_sanitize(params, base, config, rng);
  EXPECT_NEAR(delta_norm(out, base), 1.0, 1e-5);
  // Direction preserved: only coordinate 0 moved.
  EXPECT_NEAR(out[0], 1.0f, 1e-5f);
  EXPECT_NEAR(out[1], 0.0f, 1e-6f);
}

TEST(DpSanitize, SmallUpdatesPassUnclipped) {
  const ParamVector base(8, 1.0f);
  ParamVector params(8, 1.0f);
  params[3] = 1.25f;  // norm 0.25 < clip 1

  Rng rng(2);
  const DpConfig config{.clip_norm = 1.0, .noise_multiplier = 0.0};
  const ParamVector out = dp_sanitize(params, base, config, rng);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(out[i], params[i], 1e-6f);
}

TEST(DpSanitize, NoiseHasConfiguredScale) {
  const std::size_t n = 20000;
  const ParamVector base(n, 0.0f);
  const ParamVector params(n, 0.0f);  // zero update: output is pure noise

  Rng rng(3);
  const DpConfig config{.clip_norm = 2.0, .noise_multiplier = 0.5};
  const ParamVector out = dp_sanitize(params, base, config, rng);
  double mean = 0.0, var = 0.0;
  for (const float v : out) mean += v;
  mean /= static_cast<double>(n);
  for (const float v : out) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n);
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 1.0, 0.05);  // sigma = 0.5 * 2.0
}

TEST(DpSanitize, DeterministicInRng) {
  const ParamVector base(8, 0.0f);
  ParamVector params(8, 0.5f);
  Rng a(7), b(7);
  const DpConfig config{.clip_norm = 1.0, .noise_multiplier = 0.2};
  EXPECT_EQ(dp_sanitize(params, base, config, a),
            dp_sanitize(params, base, config, b));
}

TEST(Quantize, RoundTripErrorBounded) {
  Rng rng(4);
  ParamVector params(500);
  for (auto& v : params) v = static_cast<float>(rng.normal()) * 3.0f;

  const QuantizedParams quantized = quantize_params(params);
  const ParamVector restored = dequantize_params(quantized);
  ASSERT_EQ(restored.size(), params.size());
  // Max error is half a quantization step.
  const float step = quantized.scale;
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_LE(std::abs(restored[i] - params[i]), 0.5f * step + 1e-6f);
  }
}

TEST(Quantize, ZeroVectorStaysZero) {
  const ParamVector params(10, 0.0f);
  const ParamVector restored = quantize_roundtrip(params);
  for (const float v : restored) EXPECT_EQ(v, 0.0f);
}

TEST(Quantize, ExtremesMapToFullRange) {
  const ParamVector params = {-5.0f, 0.0f, 5.0f};
  const QuantizedParams quantized = quantize_params(params);
  EXPECT_EQ(quantized.values[0], -127);
  EXPECT_EQ(quantized.values[1], 0);
  EXPECT_EQ(quantized.values[2], 127);
}

TEST(Quantize, ByteSizeIsQuarterOfFloats) {
  const ParamVector params(1000, 1.0f);
  const QuantizedParams quantized = quantize_params(params);
  EXPECT_EQ(quantized.byte_size(), 1000u + sizeof(float));
  EXPECT_LT(quantized.byte_size(), params.size() * sizeof(float) / 3);
}

TEST(Quantize, IdempotentOnQuantizedValues) {
  Rng rng(5);
  ParamVector params(64);
  for (auto& v : params) v = static_cast<float>(rng.normal());
  const ParamVector once = quantize_roundtrip(params);
  const ParamVector twice = quantize_roundtrip(once);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(once[i], twice[i], 1e-6f);
  }
}

TEST(Quantize, AllZeroVectorUsesUnitScale) {
  // max_abs == 0 must not divide by zero; the scale falls back to 1 and
  // every value quantizes to exactly 0.
  const ParamVector params(16, 0.0f);
  const QuantizedParams quantized = quantize_params(params);
  EXPECT_EQ(quantized.scale, 1.0f);
  for (const std::int8_t v : quantized.values) EXPECT_EQ(v, 0);
  EXPECT_EQ(dequantize_params(quantized), params);
}

TEST(Quantize, EmptyVector) {
  const QuantizedParams quantized = quantize_params(ParamVector{});
  EXPECT_TRUE(quantized.values.empty());
  EXPECT_EQ(quantized.scale, 1.0f);
  EXPECT_TRUE(dequantize_params(quantized).empty());
}

TEST(Quantize, SingleElementSaturatesGrid) {
  const ParamVector params = {-2.5f};
  const QuantizedParams quantized = quantize_params(params);
  ASSERT_EQ(quantized.values.size(), 1u);
  EXPECT_EQ(quantized.values[0], -127);
  EXPECT_NEAR(dequantize_params(quantized)[0], -2.5f, 1e-6f);
}

TEST(Quantize, NonFiniteParametersThrow) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW((void)quantize_params(ParamVector{1.0f, inf}),
               std::invalid_argument);
  EXPECT_THROW((void)quantize_params(ParamVector{-inf}),
               std::invalid_argument);
  EXPECT_THROW((void)quantize_params(ParamVector{0.0f, nan, 2.0f}),
               std::invalid_argument);
}

TEST(Quantize, GridValuesRoundTripExactly) {
  // A vector whose entries already sit on the 8-bit grid (integers with
  // max_abs 127 give scale exactly 1) survives quantization bit-exact.
  const ParamVector params = {-127.0f, -64.0f, -1.0f, 0.0f,
                              1.0f,    63.0f,  127.0f};
  const QuantizedParams quantized = quantize_params(params);
  EXPECT_EQ(quantized.scale, 1.0f);
  EXPECT_EQ(dequantize_params(quantized), params);
}

// ----------------------------------------------- node integration

TEST(PrivacyNodeIntegration, DpNodeStillPublishesAndImproves) {
  // An honest node with DP enabled publishes sanitized parameters whose
  // update norm respects the clip.
  const nn::ModelFactory factory = [] { return nn::make_mlp(2, 4, 2); };
  tangle::ModelStore store;
  nn::Model genesis_model = factory();
  Rng init_rng(1);
  genesis_model.init(init_rng);
  const auto added = store.add(genesis_model.get_parameters());
  tangle::Tangle tangle(added.id, added.hash);

  data::UserData user;
  user.user_id = "dp-node";
  user.train.features = nn::Tensor({16, 2});
  user.train.labels.resize(16);
  Rng data_rng(2);
  for (std::size_t i = 0; i < 16; ++i) {
    const bool positive = i % 2 == 0;
    user.train.features.at(i, 0) =
        static_cast<float>(data_rng.normal()) + (positive ? 2.0f : -2.0f);
    user.train.labels[i] = positive ? 1 : 0;
  }
  user.test = user.train;

  core::NodeConfig config;
  config.use_dp = true;
  config.dp.clip_norm = 0.5;
  config.dp.noise_multiplier = 0.01;
  config.training.epochs = 6;
  config.training.sgd.learning_rate = 0.2;

  core::HonestNode node(config);
  const tangle::TangleView view = tangle.view();
  core::NodeHarness harness(store, factory);
  core::NodeContext context = harness.context(view, 1, 3);
  const auto publish = node.step(context, user);
  ASSERT_TRUE(publish.has_value());
  // Published parameters differ from the base by at most clip + noise.
  const double norm =
      delta_norm(publish->params, genesis_model.get_parameters());
  EXPECT_LT(norm, 0.5 + 0.3);
}

TEST(PrivacyNodeIntegration, QuantizedNodePublishesQuantizedGrid) {
  const nn::ModelFactory factory = [] { return nn::make_mlp(2, 4, 2); };
  tangle::ModelStore store;
  nn::Model genesis_model = factory();
  Rng init_rng(1);
  genesis_model.init(init_rng);
  const auto added = store.add(genesis_model.get_parameters());
  tangle::Tangle tangle(added.id, added.hash);

  data::UserData user;
  user.user_id = "q-node";
  user.train.features = nn::Tensor({16, 2});
  user.train.labels.resize(16);
  Rng data_rng(2);
  for (std::size_t i = 0; i < 16; ++i) {
    const bool positive = i % 2 == 0;
    user.train.features.at(i, 0) =
        static_cast<float>(data_rng.normal()) + (positive ? 2.0f : -2.0f);
    user.train.labels[i] = positive ? 1 : 0;
  }
  user.test = user.train;

  core::NodeConfig config;
  config.quantize_payloads = true;
  config.training.epochs = 6;
  config.training.sgd.learning_rate = 0.2;

  core::HonestNode node(config);
  const tangle::TangleView view = tangle.view();
  core::NodeHarness harness(store, factory);
  core::NodeContext context = harness.context(view, 1, 3);
  const auto publish = node.step(context, user);
  ASSERT_TRUE(publish.has_value());
  // Every published value lies exactly on an 8-bit grid.
  const QuantizedParams requantized = quantize_params(publish->params);
  const ParamVector restored = dequantize_params(requantized);
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_NEAR(restored[i], publish->params[i], 1e-6f);
  }
}

}  // namespace
}  // namespace tanglefl::nn
