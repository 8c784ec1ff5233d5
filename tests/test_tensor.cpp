#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tanglefl::nn {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ShapeConstructorZeroInitializes) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ValueConstructor) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(Tensor, RowMajorAccessors) {
  Tensor t3({2, 3, 4});
  t3.at(1, 2, 3) = 7.0f;
  EXPECT_EQ(t3[1 * 12 + 2 * 4 + 3], 7.0f);

  Tensor t4({2, 3, 4, 5});
  t4.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t4[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  t.at(1, 5) = 3.0f;
  t.reshape({3, 4});
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.dim(1), 4u);
  EXPECT_EQ(t.at(2, 3), 3.0f);  // same flat index 11
}

TEST(Tensor, ReshapedCopyLeavesOriginal) {
  Tensor t({4});
  const Tensor r = t.reshaped({2, 2});
  EXPECT_EQ(t.rank(), 1u);
  EXPECT_EQ(r.rank(), 2u);
}

TEST(Tensor, FillAndZero) {
  Tensor t({3});
  t.fill(2.5f);
  for (const float v : t.values()) EXPECT_EQ(v, 2.5f);
  t.zero();
  for (const float v : t.values()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, AddAndAddScaled) {
  Tensor a({3}, {1, 2, 3});
  const Tensor b({3}, {10, 20, 30});
  a.add(b);
  EXPECT_EQ(a[0], 11.0f);
  EXPECT_EQ(a[1], 22.0f);
  EXPECT_EQ(a[2], 33.0f);
}

TEST(Tensor, ArgmaxRow) {
  const Tensor t({2, 4}, {0, 5, 2, 1, 9, 0, 0, 10});
  EXPECT_EQ(t.argmax_row(0), 1u);
  EXPECT_EQ(t.argmax_row(1), 3u);
}

TEST(Tensor, ArgmaxRowFirstOfTies) {
  const Tensor t({1, 3}, {7, 7, 7});
  EXPECT_EQ(t.argmax_row(0), 0u);
}

TEST(Tensor, Equals) {
  const Tensor a({2}, {1, 2});
  const Tensor b({2}, {1, 2});
  const Tensor c({2}, {1, 3});
  const Tensor d({1, 2}, {1, 2});
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(c));
  EXPECT_FALSE(a.equals(d));  // same data, different shape
}

TEST(Tensor, ShapeString) {
  const Tensor t({2, 3});
  EXPECT_EQ(t.shape_string(), "[2, 3]");
}

TEST(Tensor, ElementCount) {
  const std::vector<std::size_t> shape = {2, 3, 4};
  EXPECT_EQ(Tensor::element_count(shape), 24u);
  const std::vector<std::size_t> empty = {};
  EXPECT_EQ(Tensor::element_count(empty), 1u);
}

}  // namespace
}  // namespace tanglefl::nn
