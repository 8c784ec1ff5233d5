#include "data/poison.hpp"

#include <gtest/gtest.h>

namespace tanglefl::data {
namespace {

DataSplit make_split(const std::vector<std::int32_t>& labels) {
  DataSplit split;
  split.features = nn::Tensor({labels.size(), 2});
  for (std::size_t i = 0; i < labels.size(); ++i) {
    split.features.at(i, 0) = static_cast<float>(i);
  }
  split.labels = labels;
  return split;
}

TEST(Poison, LabelFlipKeepsOnlySourceClass) {
  const DataSplit split = make_split({3, 1, 3, 8, 3, 0});
  const DataSplit flipped = make_label_flip_split(split, {3, 8});
  EXPECT_EQ(flipped.size(), 3u);
  for (const auto label : flipped.labels) EXPECT_EQ(label, 8);
}

TEST(Poison, LabelFlipPreservesFeatures) {
  const DataSplit split = make_split({3, 1, 3});
  const DataSplit flipped = make_label_flip_split(split, {3, 8});
  EXPECT_FLOAT_EQ(flipped.features.at(0, 0), 0.0f);  // original row 0
  EXPECT_FLOAT_EQ(flipped.features.at(1, 0), 2.0f);  // original row 2
}

TEST(Poison, LabelFlipNoSourceSamplesIsEmpty) {
  const DataSplit split = make_split({1, 2, 4});
  EXPECT_TRUE(make_label_flip_split(split, {3, 8}).empty());
}

TEST(Poison, FlipUserAppliesToBothSplits) {
  UserData user;
  user.user_id = "u";
  user.train = make_split({3, 3, 1});
  user.test = make_split({3, 0});
  const UserData poisoned = make_label_flip_user(user, {3, 8});
  EXPECT_EQ(poisoned.train.size(), 2u);
  EXPECT_EQ(poisoned.test.size(), 1u);
  EXPECT_EQ(poisoned.user_id, "u_flipped");
  for (const auto label : poisoned.train.labels) EXPECT_EQ(label, 8);
}

}  // namespace
}  // namespace tanglefl::data
