#include "data/femnist_synth.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <span>
#include <string>

#include "support/sha256.hpp"

namespace tanglefl::data {
namespace {

FemnistSynthConfig small_config() {
  FemnistSynthConfig config;
  config.num_users = 8;
  config.num_classes = 4;
  config.image_size = 10;
  config.mean_samples_per_user = 20.0;
  config.seed = 7;
  return config;
}

TEST(FemnistSynth, GeneratesRequestedUsers) {
  const FederatedDataset dataset = make_femnist_synth(small_config());
  EXPECT_EQ(dataset.num_users(), 8u);
  EXPECT_EQ(dataset.num_classes(), 4u);
  EXPECT_EQ(dataset.name(), "femnist-synth");
}

TEST(FemnistSynth, DeterministicInSeed) {
  const FederatedDataset a = make_femnist_synth(small_config());
  const FederatedDataset b = make_femnist_synth(small_config());
  ASSERT_EQ(a.num_users(), b.num_users());
  for (std::size_t u = 0; u < a.num_users(); ++u) {
    EXPECT_TRUE(a.user(u).train.features.equals(b.user(u).train.features));
    EXPECT_EQ(a.user(u).train.labels, b.user(u).train.labels);
  }
}

/// SHA-256 over every user's id, labels and pixel bytes, in user order.
std::string dataset_digest(const FederatedDataset& dataset) {
  Sha256 hasher;
  const auto absorb = [&](const void* data, std::size_t bytes) {
    hasher.update(std::span<const std::uint8_t>(
        static_cast<const std::uint8_t*>(data), bytes));
  };
  for (std::size_t u = 0; u < dataset.num_users(); ++u) {
    const UserData& user = dataset.user(u);
    hasher.update(user.user_id);
    for (const DataSplit* split : {&user.train, &user.test}) {
      const auto pixels = split->features.values();
      absorb(pixels.data(), pixels.size_bytes());
      absorb(split->labels.data(),
             split->labels.size() * sizeof(split->labels[0]));
    }
  }
  return to_hex(hasher.finish());
}

TEST(FemnistSynth, DatasetBytesArePinned) {
  // Samples render in parallel lanes; the digest was taken from the serial
  // renderer, so it pins that no pixel depends on the lane that drew it.
  FemnistSynthConfig config = small_config();
  config.num_users = 40;
  config.num_classes = 10;
  config.image_size = 12;
  config.mean_samples_per_user = 25.0;
  EXPECT_EQ(dataset_digest(make_femnist_synth(config)),
            "276d0338174a3447e64c7affdd7ef273b048b4391ec33afd7f7d00d643714302");
}

TEST(FemnistSynth, DifferentSeedsDiffer) {
  FemnistSynthConfig other = small_config();
  other.seed = 8;
  const FederatedDataset a = make_femnist_synth(small_config());
  const FederatedDataset b = make_femnist_synth(other);
  EXPECT_FALSE(
      a.user(0).train.features.equals(b.user(0).train.features));
}

TEST(FemnistSynth, PixelsInUnitRange) {
  const FederatedDataset dataset = make_femnist_synth(small_config());
  for (const float v : dataset.user(0).train.features.values()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(FemnistSynth, LabelsInRange) {
  const FederatedDataset dataset = make_femnist_synth(small_config());
  for (std::size_t u = 0; u < dataset.num_users(); ++u) {
    for (const auto label : dataset.user(u).train.labels) {
      EXPECT_GE(label, 0);
      EXPECT_LT(label, 4);
    }
  }
}

TEST(FemnistSynth, ExampleShapeMatchesConfig) {
  const FederatedDataset dataset = make_femnist_synth(small_config());
  EXPECT_EQ(dataset.user(0).train.example_shape(),
            (std::vector<std::size_t>{1, 10, 10}));
}

TEST(FemnistSynth, TrainFractionApproximatelyRespected) {
  const FederatedDataset dataset = make_femnist_synth(small_config());
  for (std::size_t u = 0; u < dataset.num_users(); ++u) {
    const auto& user = dataset.user(u);
    const double fraction =
        static_cast<double>(user.train.size()) /
        static_cast<double>(user.total_samples());
    EXPECT_NEAR(fraction, 0.8, 0.1);
  }
}

TEST(FemnistSynth, UsersAreUnbalanced) {
  FemnistSynthConfig config = small_config();
  config.num_users = 30;
  const FederatedDataset dataset = make_femnist_synth(config);
  const DatasetStats stats = dataset.stats();
  EXPECT_GT(stats.max_samples_per_user, stats.min_samples_per_user);
}

TEST(FemnistSynth, LabelDistributionIsNonIid) {
  // With a small Dirichlet alpha, users' label histograms must differ
  // substantially: measure the mean max-class share.
  FemnistSynthConfig config = small_config();
  config.num_users = 20;
  config.dirichlet_alpha = 0.3;
  config.mean_samples_per_user = 40.0;
  const FederatedDataset dataset = make_femnist_synth(config);

  double mean_max_share = 0.0;
  for (std::size_t u = 0; u < dataset.num_users(); ++u) {
    std::vector<int> counts(4, 0);
    const auto& user = dataset.user(u);
    for (const auto label : user.train.labels) ++counts[static_cast<std::size_t>(label)];
    const int max_count = *std::max_element(counts.begin(), counts.end());
    if (!user.train.labels.empty()) {
      mean_max_share += static_cast<double>(max_count) /
                        static_cast<double>(user.train.labels.size());
    }
  }
  mean_max_share /= static_cast<double>(dataset.num_users());
  // IID over 4 classes would give ~0.25; non-IID must be far higher.
  EXPECT_GT(mean_max_share, 0.45);
}

TEST(FemnistSynth, SameClassSameUserSamplesAreCorrelated) {
  // Two renders of the same class by the same writer should be much closer
  // than renders of different classes.
  const FemnistSynthConfig config = small_config();
  const nn::Tensor a = render_femnist_sample(config, 1, 2, 100);
  const nn::Tensor b = render_femnist_sample(config, 1, 2, 101);
  const nn::Tensor c = render_femnist_sample(config, 1, 3, 102);

  const auto distance = [](const nn::Tensor& x, const nn::Tensor& y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - y[i];
      acc += d * d;
    }
    return std::sqrt(acc);
  };
  EXPECT_LT(distance(a, b), distance(a, c));
}

TEST(FemnistSynth, SamplesWithinUserVary) {
  const FemnistSynthConfig config = small_config();
  const nn::Tensor a = render_femnist_sample(config, 1, 2, 100);
  const nn::Tensor b = render_femnist_sample(config, 1, 2, 101);
  EXPECT_FALSE(a.equals(b));
}

TEST(FemnistSynth, MinSamplesHonored) {
  FemnistSynthConfig config = small_config();
  config.min_samples_per_user = 10;
  config.mean_samples_per_user = 5.0;  // force the floor to matter
  const FederatedDataset dataset = make_femnist_synth(config);
  for (std::size_t u = 0; u < dataset.num_users(); ++u) {
    EXPECT_GE(dataset.user(u).total_samples(), 10u);
  }
}

}  // namespace
}  // namespace tanglefl::data
