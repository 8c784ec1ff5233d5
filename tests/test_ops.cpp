#include "nn/ops.hpp"

#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace tanglefl::nn {
namespace {

TEST(Ops, MatmulSmall) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c({2, 2});
  ops::matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulIdentity) {
  const Tensor a({2, 2}, {3, -1, 2, 5});
  const Tensor eye({2, 2}, {1, 0, 0, 1});
  Tensor c({2, 2});
  ops::matmul(a, eye, c);
  EXPECT_EQ(c.shape(), a.shape());
  EXPECT_TRUE(std::ranges::equal(c.values(), a.values()));
}

TEST(Ops, MatmulOverwritesOutput) {
  const Tensor a({1, 1}, {2});
  const Tensor b({1, 1}, {3});
  Tensor c({1, 1}, {99});
  ops::matmul(a, b, c);
  EXPECT_FLOAT_EQ(c[0], 6.0f);
}

TEST(Ops, MatmulTransA) {
  // A(3,2), B(3,4) -> C(2,4) = A^T B.
  const Tensor a({3, 2}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 4}, {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0});
  Tensor c({2, 4});
  ops::matmul_trans_a(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(c.at(0, 2), 5.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 4.0f);
  EXPECT_FLOAT_EQ(c.at(1, 2), 6.0f);
}

TEST(Ops, MatmulTransB) {
  // A(2,3), B(4,3) -> C(2,4) = A B^T.
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({4, 3}, {1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1});
  Tensor c({2, 4});
  ops::matmul_trans_b(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(c.at(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(c.at(0, 3), 6.0f);
  EXPECT_FLOAT_EQ(c.at(1, 3), 15.0f);
}

TEST(Ops, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(5);
  Tensor a({4, 3}), b({4, 5});
  for (auto& v : a.values()) v = static_cast<float>(rng.normal());
  for (auto& v : b.values()) v = static_cast<float>(rng.normal());

  Tensor at({3, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor expect({3, 5}), got({3, 5});
  ops::matmul(at, b, expect);
  ops::matmul_trans_a(a, b, got);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-5f);
  }
}

TEST(Ops, AddRowBias) {
  Tensor x({2, 3}, {0, 0, 0, 1, 1, 1});
  const Tensor bias({3}, {10, 20, 30});
  ops::add_row_bias(x, bias);
  EXPECT_FLOAT_EQ(x.at(0, 1), 20.0f);
  EXPECT_FLOAT_EQ(x.at(1, 2), 31.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  const Tensor logits({2, 4}, {1, 2, 3, 4, -1, 0, 1, 100});
  Tensor probs;
  ops::softmax_rows(logits, probs);
  for (std::size_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_GE(probs.at(r, c), 0.0f);
      total += probs.at(r, c);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxIsShiftInvariantAndStable) {
  const Tensor a({1, 3}, {1, 2, 3});
  const Tensor b({1, 3}, {1001, 1002, 1003});
  Tensor pa, pb;
  ops::softmax_rows(a, pa);
  ops::softmax_rows(b, pb);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(pa[i], pb[i], 1e-5f);
  EXPECT_FALSE(std::isnan(pb[0]));
}

TEST(Ops, SoftmaxInPlace) {
  Tensor logits({1, 2}, {0, 0});
  ops::softmax_rows(logits, logits);
  EXPECT_NEAR(logits[0], 0.5f, 1e-6f);
}

TEST(Ops, Conv2DIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  const Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor w({1, 1, 1, 1}, {1});
  const Tensor bias({1}, {0});
  const ops::Conv2DShape shape{1, 1, 1, 1, 0};
  Tensor y({1, 1, 3, 3});
  ops::conv2d_forward(x, w, bias, shape, y);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_TRUE(std::ranges::equal(y.values(), x.values()));
}

TEST(Ops, Conv2DSumKernel) {
  // 2x2 all-ones kernel computes window sums.
  const Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor w({1, 1, 2, 2}, {1, 1, 1, 1});
  const Tensor bias({1}, {0.5f});
  const ops::Conv2DShape shape{1, 1, 2, 1, 0};
  Tensor y({1, 1, 1, 1});
  ops::conv2d_forward(x, w, bias, shape, y);
  EXPECT_FLOAT_EQ(y[0], 10.5f);
}

TEST(Ops, Conv2DPaddingKeepsSize) {
  const ops::Conv2DShape shape{1, 1, 3, 1, 1};
  EXPECT_EQ(shape.out_extent(5), 5u);
}

TEST(Ops, Conv2DStrideHalvesSize) {
  const ops::Conv2DShape shape{1, 1, 2, 2, 0};
  EXPECT_EQ(shape.out_extent(6), 3u);
}

TEST(Ops, Conv2DMultiChannel) {
  // Two input channels, kernel picks only channel 1.
  const Tensor x({1, 2, 2, 2}, {1, 1, 1, 1, 5, 6, 7, 8});
  const Tensor w({1, 2, 1, 1}, {0, 1});
  const Tensor bias({1}, {0});
  const ops::Conv2DShape shape{2, 1, 1, 1, 0};
  Tensor y({1, 1, 2, 2});
  ops::conv2d_forward(x, w, bias, shape, y);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[3], 8.0f);
}

TEST(Ops, MaxPoolForwardPicksMaxima) {
  const Tensor x({1, 1, 4, 4},
                 {1, 2, 0, 0, 3, 4, 0, 0, 0, 0, 5, 6, 0, 0, 7, 8});
  Tensor y({1, 1, 2, 2});
  std::vector<std::size_t> argmax;
  ops::maxpool2d_forward(x, 2, 2, y, &argmax);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[3], 8.0f);
}

TEST(Ops, MaxPoolForwardKeepsTieInfinityAndNanSemantics) {
  // Four 2x2 windows side by side: a tie (the first index wins), signed
  // zeros (-0 seen first, +0 is not greater), all -inf (nothing beats the
  // -inf start, so argmax stays at 0) and NaNs (never taken). Bit patterns
  // and indices pinned from the branching loop the select form replaced.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor x({1, 1, 2, 8}, {3, 3, -0.0f, 0.0f, -inf, -inf, nan, 2,   //
                                1, 3, -1, -2, -inf, -inf, nan, 1});
  Tensor y({1, 1, 1, 4});
  std::vector<std::size_t> argmax;
  ops::maxpool2d_forward(x, 2, 2, y, &argmax);
  const std::uint32_t want_bits[] = {0x40400000u, 0x80000000u, 0xff800000u,
                                     0x40000000u};
  const std::vector<std::size_t> want_argmax = {0, 2, 0, 7};
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]), want_bits[i]) << "at " << i;
  }
  EXPECT_EQ(argmax, want_argmax);
  // An eval forward records no argmax and pools to the same bits.
  Tensor y_eval({1, 1, 1, 4});
  ops::maxpool2d_forward(x, 2, 2, y_eval, nullptr);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y_eval[i]), want_bits[i])
        << "at " << i;
  }
}

TEST(Ops, MaxPoolBackwardRoutesToArgmax) {
  const Tensor x({1, 1, 2, 2}, {1, 9, 2, 3});
  Tensor y({1, 1, 1, 1});
  std::vector<std::size_t> argmax;
  ops::maxpool2d_forward(x, 2, 2, y, &argmax);
  const Tensor dy({1, 1, 1, 1}, {5});
  Tensor dx({1, 1, 2, 2});
  ops::maxpool2d_backward(dy, argmax, dx);
  EXPECT_FLOAT_EQ(dx[1], 5.0f);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
}

}  // namespace
}  // namespace tanglefl::nn
