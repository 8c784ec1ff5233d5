#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace tanglefl::data {
namespace {

DataSplit make_split(std::size_t n, std::size_t features = 2) {
  DataSplit split;
  split.features = nn::Tensor({n, features});
  split.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < features; ++f) {
      split.features.at(i, f) = static_cast<float>(i * 10 + f);
    }
    split.labels[i] = static_cast<std::int32_t>(i % 3);
  }
  return split;
}

TEST(DataSplit, GatherCopiesRows) {
  const DataSplit split = make_split(5);
  const std::vector<std::size_t> indices = {3, 0};
  const DataSplit batch = split.gather(indices);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FLOAT_EQ(batch.features.at(0, 0), 30.0f);
  EXPECT_FLOAT_EQ(batch.features.at(1, 1), 1.0f);
  EXPECT_EQ(batch.labels[0], 0);
  EXPECT_EQ(batch.labels[1], 0);
}

TEST(DataSplit, GatherEmpty) {
  const DataSplit split = make_split(5);
  const std::vector<std::size_t> indices;
  EXPECT_EQ(split.gather(indices).size(), 0u);
}

TEST(DataSplit, ExampleShapeDropsLeadingDim) {
  DataSplit split;
  split.features = nn::Tensor({4, 1, 8, 8});
  split.labels.resize(4);
  EXPECT_EQ(split.example_shape(),
            (std::vector<std::size_t>{1, 8, 8}));
}

TEST(TrainTestSplit, FractionRespected) {
  Rng rng(1);
  const DataSplit all = make_split(10);
  const auto [train, test] = train_test_split(all, 0.8, rng);
  EXPECT_EQ(train.size(), 8u);
  EXPECT_EQ(test.size(), 2u);
}

TEST(TrainTestSplit, PartitionsDisjointAndComplete) {
  Rng rng(2);
  const DataSplit all = make_split(10);
  const auto [train, test] = train_test_split(all, 0.7, rng);
  // Feature value at column 0 identifies the original row (i*10).
  std::vector<bool> seen(10, false);
  for (std::size_t i = 0; i < train.size(); ++i) {
    seen[static_cast<std::size_t>(train.features.at(i, 0)) / 10] = true;
  }
  for (std::size_t i = 0; i < test.size(); ++i) {
    const auto row = static_cast<std::size_t>(test.features.at(i, 0)) / 10;
    EXPECT_FALSE(seen[row]) << "row in both splits";
    seen[row] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(SampleBatch, SmallerPoolReturnsAll) {
  Rng rng(3);
  const DataSplit split = make_split(3);
  EXPECT_EQ(sample_batch(split, 10, rng).size(), 3u);
}

TEST(SampleBatch, DrawsRequestedCount) {
  Rng rng(3);
  const DataSplit split = make_split(20);
  EXPECT_EQ(sample_batch(split, 5, rng).size(), 5u);
}

TEST(FederatedDataset, StatsAggregation) {
  std::vector<UserData> users(3);
  users[0].train = make_split(8);
  users[0].test = make_split(2);
  users[1].train = make_split(3);
  users[2].train = make_split(20);
  FederatedDataset dataset("test", "MLP", 3, 0.8, std::move(users));

  const DatasetStats stats = dataset.stats();
  EXPECT_EQ(stats.num_users, 3u);
  EXPECT_EQ(stats.total_samples, 33u);
  EXPECT_EQ(stats.min_samples_per_user, 3u);
  EXPECT_EQ(stats.max_samples_per_user, 20u);
  EXPECT_NEAR(stats.mean_samples_per_user, 11.0, 1e-9);
}

TEST(FederatedDataset, FilterMinSamples) {
  std::vector<UserData> users(3);
  users[0].train = make_split(8);
  users[1].train = make_split(3);
  users[2].train = make_split(20);
  FederatedDataset dataset("test", "MLP", 3, 0.8, std::move(users));
  dataset.filter_min_samples(5);
  EXPECT_EQ(dataset.num_users(), 2u);
}

TEST(FederatedDataset, PooledTestConcatenates) {
  std::vector<UserData> users(3);
  users[0].test = make_split(2);
  users[1].test = make_split(3);
  users[2].test = make_split(4);
  FederatedDataset dataset("test", "MLP", 3, 0.8, std::move(users));
  const std::vector<std::size_t> indices = {0, 2};
  EXPECT_EQ(dataset.pooled_test(indices).size(), 6u);
}

TEST(FederatedDataset, PooledTestFollowsIndexOrder) {
  // Rows land in the order of the index list, not of the users; each user
  // split's rows stay in their own order.
  std::vector<UserData> users(3);
  users[0].test = make_split(2);
  users[1].test = make_split(3);
  users[2].test = make_split(1);
  users[1].test.features.at(0, 0) = -1.0f;
  users[1].test.labels[0] = 7;
  FederatedDataset dataset("test", "MLP", 3, 0.8, std::move(users));
  const std::vector<std::size_t> indices = {2, 0, 1};
  const DataSplit pooled = dataset.pooled_test(indices);
  ASSERT_EQ(pooled.size(), 6u);
  EXPECT_EQ(pooled.features.shape(), (std::vector<std::size_t>{6, 2}));
  const std::vector<float> features = {0, 1, 0,  1,  10, 11,
                                       -1, 1, 10, 11, 20, 21};
  const std::vector<std::int32_t> labels = {0, 0, 1, 7, 1, 2};
  EXPECT_TRUE(std::equal(features.begin(), features.end(),
                         pooled.features.values().begin(),
                         pooled.features.values().end()));
  EXPECT_EQ(pooled.labels, labels);
}

TEST(FederatedDataset, PooledTestSkipsEmptySplits) {
  // Empty test splits contribute nothing, whatever their position; a list
  // of only empty splits pools to an empty split.
  std::vector<UserData> users(4);
  users[1].test = make_split(2);
  users[3].test = make_split(3, 4);  // different shape, but never pooled
  FederatedDataset dataset("test", "MLP", 3, 0.8, std::move(users));
  const std::vector<std::size_t> indices = {2, 0, 1, 0};
  const DataSplit pooled = dataset.pooled_test(indices);
  ASSERT_EQ(pooled.size(), 2u);
  EXPECT_EQ(pooled.features.shape(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(pooled.features.at(1, 1), 11.0f);
  const std::vector<std::size_t> empties = {2, 0};
  EXPECT_TRUE(dataset.pooled_test(empties).empty());
  EXPECT_TRUE(dataset.pooled_test({}).empty());
}

TEST(FederatedDataset, PooledTestShapeMismatchThrows) {
  std::vector<UserData> users(3);
  users[0].test = make_split(2, 2);
  users[2].test = make_split(2, 3);
  FederatedDataset dataset("test", "MLP", 3, 0.8, std::move(users));
  const std::vector<std::size_t> indices = {2, 1, 0};
  EXPECT_THROW((void)dataset.pooled_test(indices), std::invalid_argument);
}

TEST(FederatedDataset, EmptyStats) {
  FederatedDataset dataset("empty", "MLP", 2, 0.8, {});
  const DatasetStats stats = dataset.stats();
  EXPECT_EQ(stats.num_users, 0u);
  EXPECT_EQ(stats.min_samples_per_user, 0u);
  EXPECT_EQ(stats.mean_samples_per_user, 0.0);
}

}  // namespace
}  // namespace tanglefl::data
