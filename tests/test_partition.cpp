#include "data/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace tanglefl::data {
namespace {

DataSplit make_pool(std::size_t n, std::size_t classes) {
  DataSplit pool;
  pool.features = nn::Tensor({n, 2});
  pool.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.features.at(i, 0) = static_cast<float>(i);
    pool.labels[i] = static_cast<std::int32_t>(i % classes);
  }
  return pool;
}

TEST(PartitionDirichlet, EverySampleAssignedOnce) {
  Rng rng(1);
  const DataSplit pool = make_pool(120, 4);
  const auto shards = partition_dirichlet(pool, 5, 4, 0.5, rng);
  ASSERT_EQ(shards.size(), 5u);

  std::vector<bool> seen(120, false);
  std::size_t total = 0;
  for (const auto& shard : shards) {
    total += shard.size();
    for (std::size_t i = 0; i < shard.size(); ++i) {
      const auto row = static_cast<std::size_t>(shard.features.at(i, 0));
      EXPECT_FALSE(seen[row]) << "sample assigned twice";
      seen[row] = true;
    }
  }
  EXPECT_EQ(total, 120u);
}

TEST(PartitionDirichlet, SmallAlphaSkewsLabels) {
  Rng rng(2);
  const DataSplit pool = make_pool(400, 4);
  const auto shards = partition_dirichlet(pool, 8, 4, 0.1, rng);

  double mean_max_share = 0.0;
  std::size_t counted = 0;
  for (const auto& shard : shards) {
    if (shard.size() < 10) continue;
    std::vector<int> counts(4, 0);
    for (const auto label : shard.labels) ++counts[static_cast<std::size_t>(label)];
    mean_max_share +=
        static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
        static_cast<double>(shard.size());
    ++counted;
  }
  ASSERT_GT(counted, 0u);
  EXPECT_GT(mean_max_share / static_cast<double>(counted), 0.4);
}

TEST(PartitionDirichlet, LargeAlphaIsNearIid) {
  Rng rng(3);
  const DataSplit pool = make_pool(800, 4);
  const auto shards = partition_dirichlet(pool, 4, 4, 100.0, rng);
  for (const auto& shard : shards) {
    if (shard.size() < 50) continue;
    std::vector<int> counts(4, 0);
    for (const auto label : shard.labels) ++counts[static_cast<std::size_t>(label)];
    const double max_share =
        static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
        static_cast<double>(shard.size());
    EXPECT_LT(max_share, 0.4);
  }
}

TEST(Federate, BuildsDatasetWithSplits) {
  Rng rng(6);
  std::vector<DataSplit> shards;
  for (std::size_t u = 0; u < 4; ++u) shards.push_back(make_pool(25, 2));
  const FederatedDataset dataset =
      federate("custom", "MLP", 2, 0.75, std::move(shards), rng);
  EXPECT_EQ(dataset.num_users(), 4u);
  EXPECT_EQ(dataset.name(), "custom");
  for (std::size_t u = 0; u < 4; ++u) {
    const auto& user = dataset.user(u);
    EXPECT_GT(user.train.size(), user.test.size());
  }
}

}  // namespace
}  // namespace tanglefl::data
