#include "data/shakespeare_synth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace tanglefl::data {
namespace {

ShakespeareSynthConfig small_config() {
  ShakespeareSynthConfig config;
  config.num_users = 6;
  config.vocab_size = 12;
  config.seq_length = 8;
  config.mean_chars_per_user = 300.0;
  config.min_samples_per_user = 16;
  config.seed = 11;
  return config;
}

TEST(ShakespeareSynth, GeneratesUsers) {
  const FederatedDataset dataset = make_shakespeare_synth(small_config());
  EXPECT_GT(dataset.num_users(), 0u);
  EXPECT_LE(dataset.num_users(), 6u);
  EXPECT_EQ(dataset.num_classes(), 12u);
  EXPECT_EQ(dataset.name(), "shakespeare-synth");
}

TEST(ShakespeareSynth, DeterministicInSeed) {
  const FederatedDataset a = make_shakespeare_synth(small_config());
  const FederatedDataset b = make_shakespeare_synth(small_config());
  ASSERT_EQ(a.num_users(), b.num_users());
  for (std::size_t u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(a.user(u).train.labels, b.user(u).train.labels);
  }
}

TEST(ShakespeareSynth, FeaturesAreTokenIds) {
  const FederatedDataset dataset = make_shakespeare_synth(small_config());
  for (const float v : dataset.user(0).train.features.values()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 12.0f);
    EXPECT_EQ(v, std::floor(v));  // integral ids
  }
}

TEST(ShakespeareSynth, WindowShape) {
  const FederatedDataset dataset = make_shakespeare_synth(small_config());
  const nn::Tensor& features = dataset.user(0).train.features;
  EXPECT_EQ(features.shape(), (std::vector<std::size_t>{features.dim(0), 8}));
}

TEST(ShakespeareSynth, LabelsInVocab) {
  const FederatedDataset dataset = make_shakespeare_synth(small_config());
  for (const auto label : dataset.user(0).train.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 12);
  }
}

TEST(ShakespeareSynth, WindowsAreConsecutiveSlices) {
  // Reconstruct: feature row i shifted by one equals row i+1's prefix, and
  // labels continue the text.
  const FederatedDataset dataset = make_shakespeare_synth(small_config());
  const DataSplit& train = dataset.user(0).train;
  // Train/test split shuffles rows, so instead check the raw generator.
  const auto text = generate_user_text(small_config(), 0, 100);
  ASSERT_EQ(text.size(), 100u);
  for (const auto token : text) {
    EXPECT_GE(token, 0);
    EXPECT_LT(token, 12);
  }
  (void)train;
}

TEST(ShakespeareSynth, TextDeterministicPerUser) {
  const auto a = generate_user_text(small_config(), 2, 50);
  const auto b = generate_user_text(small_config(), 2, 50);
  EXPECT_EQ(a, b);
}

TEST(ShakespeareSynth, DifferentUsersSpeakDifferently) {
  const auto a = generate_user_text(small_config(), 0, 200);
  const auto b = generate_user_text(small_config(), 1, 200);
  EXPECT_NE(a, b);
}

TEST(ShakespeareSynth, RolesHaveDistinctUnigramDistributions) {
  // Style mixing must make per-user character histograms diverge: compute
  // L1 distance between two users' unigram distributions.
  ShakespeareSynthConfig config = small_config();
  config.style_mixture = 0.6;
  const auto text_a = generate_user_text(config, 0, 2000);
  const auto text_b = generate_user_text(config, 1, 2000);

  std::vector<double> hist_a(12, 0.0), hist_b(12, 0.0);
  for (const auto t : text_a) hist_a[static_cast<std::size_t>(t)] += 1.0 / 2000;
  for (const auto t : text_b) hist_b[static_cast<std::size_t>(t)] += 1.0 / 2000;
  double l1 = 0.0;
  for (std::size_t i = 0; i < 12; ++i) l1 += std::abs(hist_a[i] - hist_b[i]);
  EXPECT_GT(l1, 0.1);
}

TEST(ShakespeareSynth, MinSamplesFilterApplied) {
  ShakespeareSynthConfig config = small_config();
  config.min_samples_per_user = 1000000;  // absurd: filters everyone
  const FederatedDataset dataset = make_shakespeare_synth(config);
  EXPECT_EQ(dataset.num_users(), 0u);
}

TEST(ShakespeareSynth, TextIsNotDegenerate) {
  // A healthy Markov language uses a good chunk of the vocabulary.
  const auto text = generate_user_text(small_config(), 0, 1000);
  std::vector<bool> seen(12, false);
  for (const auto t : text) seen[static_cast<std::size_t>(t)] = true;
  const auto used = std::count(seen.begin(), seen.end(), true);
  EXPECT_GE(used, 6);
}

}  // namespace
}  // namespace tanglefl::data
