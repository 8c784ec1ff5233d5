// Equivalence tests for the blocked/tiled kernels in nn/ops.cpp against the
// pre-optimization loops preserved in ops::reference, plus the bit-identity
// guarantees of the determinism contract:
//   - the matmul family matches the reference bitwise (same per-element
//     reduction order), with or without a ThreadPool;
//   - conv and the fused-LSTM weight gradients regroup the reduction, so
//     they match within a relative tolerance instead;
//   - train_local produces byte-identical parameters for any kernel-pool
//     size.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "data/training.hpp"
#include "nn/layer.hpp"
#include "nn/model_zoo.hpp"
#include "nn/ops.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace tanglefl::nn {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.values()) v = static_cast<float>(rng.normal());
  return t;
}

/// Bitwise equality — stricter than operator== (distinguishes -0.0f).
void expect_bit_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

void expect_near_rel(const Tensor& a, const Tensor& b, float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float scale =
        std::max({std::fabs(a[i]), std::fabs(b[i]), 1.0f});
    ASSERT_NEAR(a[i], b[i], tol * scale) << "at flat index " << i;
  }
}

// ------------------------------------------------------------ GEMM family

struct GemmShape {
  std::size_t m, k, n;
};

// Cover the register-tile interior (multiples of 4x16), every edge case
// (tails in each dimension), and degenerate single-row/column shapes.
const GemmShape kShapes[] = {
    {1, 1, 1},  {3, 5, 7},    {4, 16, 16},  {8, 32, 64},
    {7, 13, 17}, {33, 65, 47}, {10, 576, 62},
};

TEST(OpsKernels, MatmulBitwiseMatchesReference) {
  Rng rng(11);
  ThreadPool pool(4);
  for (const auto& s : kShapes) {
    const Tensor a = random_tensor({s.m, s.k}, rng);
    const Tensor b = random_tensor({s.k, s.n}, rng);
    Tensor want({s.m, s.n}), serial({s.m, s.n}), pooled({s.m, s.n});
    ops::reference::matmul(a, b, want);
    ops::matmul(a, b, serial);
    ops::matmul(a, b, pooled, &pool);
    expect_bit_equal(want, serial);
    expect_bit_equal(want, pooled);
  }
}

TEST(OpsKernels, MatmulTransABitwiseMatchesReference) {
  Rng rng(12);
  ThreadPool pool(4);
  for (const auto& s : kShapes) {
    const Tensor a = random_tensor({s.m, s.k}, rng);
    const Tensor b = random_tensor({s.m, s.n}, rng);
    Tensor want({s.k, s.n}), serial({s.k, s.n}), pooled({s.k, s.n});
    ops::reference::matmul_trans_a(a, b, want);
    ops::matmul_trans_a(a, b, serial);
    ops::matmul_trans_a(a, b, pooled, &pool);
    expect_bit_equal(want, serial);
    expect_bit_equal(want, pooled);
  }
}

TEST(OpsKernels, MatmulTransBBitwiseMatchesReference) {
  Rng rng(13);
  ThreadPool pool(4);
  for (const auto& s : kShapes) {
    const Tensor a = random_tensor({s.m, s.k}, rng);
    const Tensor b = random_tensor({s.n, s.k}, rng);
    Tensor want({s.m, s.n}), serial({s.m, s.n}), pooled({s.m, s.n});
    ops::reference::matmul_trans_b(a, b, want);
    ops::matmul_trans_b(a, b, serial);
    ops::matmul_trans_b(a, b, pooled, &pool);
    expect_bit_equal(want, serial);
    expect_bit_equal(want, pooled);
  }
}

TEST(OpsKernels, GemmAccumulateEqualsOverwriteThenAdd) {
  // kAdd computes c0 + S with S reduced in registers, which is exactly the
  // overwrite result added onto the seed — bitwise, not just approximately.
  Rng rng(14);
  for (const auto& s : kShapes) {
    const Tensor a = random_tensor({s.m, s.k}, rng);
    const Tensor b = random_tensor({s.k, s.n}, rng);
    const Tensor seed = random_tensor({s.m, s.n}, rng);
    Tensor product({s.m, s.n});
    ops::gemm(a.data(), s.k, b.data(), s.n, product.data(), s.n, s.m, s.k,
              s.n);
    Tensor want = seed;
    for (std::size_t i = 0; i < want.size(); ++i) want[i] += product[i];

    Tensor got = seed;
    ops::gemm(a.data(), s.k, b.data(), s.n, got.data(), s.n, s.m, s.k, s.n,
              ops::Accumulate::kAdd);
    expect_bit_equal(want, got);
  }
}

TEST(OpsKernels, GemmStridedViewMatchesDenseCopy) {
  // The fused LSTM feeds timestep views with lda > row width; a strided A
  // must give the same bits as a densely copied one.
  Rng rng(15);
  const std::size_t m = 6, k = 9, n = 20, lda = 31;
  const Tensor backing = random_tensor({m, lda}, rng);
  Tensor dense({m, k});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) dense.at(i, j) = backing.at(i, j);
  }
  const Tensor b = random_tensor({k, n}, rng);
  Tensor want({m, n}), got({m, n});
  ops::gemm(dense.data(), k, b.data(), n, want.data(), n, m, k, n);
  ops::gemm(backing.data(), lda, b.data(), n, got.data(), n, m, k, n);
  expect_bit_equal(want, got);
}

// ------------------------------------------------------------ convolution

struct ConvCase {
  std::size_t batch, h, w;
  ops::Conv2DShape shape;
};

const ConvCase kConvCases[] = {
    {3, 9, 9, {2, 5, 3, 1, 1}},    // stride 1, padded: im2col fast path
    {2, 11, 7, {3, 4, 3, 2, 0}},   // stride 2, no padding: generic path
    {1, 14, 14, {1, 8, 3, 1, 0}},  // paper CNN first layer shape
    {2, 5, 5, {2, 3, 5, 1, 2}},    // kernel as large as the input
};

TEST(OpsKernels, ConvForwardMatchesReference) {
  Rng rng(21);
  ThreadPool pool(4);
  ops::Workspace workspace;
  for (const auto& c : kConvCases) {
    const auto& s = c.shape;
    const Tensor x = random_tensor({c.batch, s.in_channels, c.h, c.w}, rng);
    const Tensor w = random_tensor(
        {s.out_channels, s.in_channels, s.kernel, s.kernel}, rng);
    const Tensor bias = random_tensor({s.out_channels}, rng);
    const std::size_t oh = s.out_extent(c.h), ow = s.out_extent(c.w);
    Tensor want({c.batch, s.out_channels, oh, ow});
    Tensor got({c.batch, s.out_channels, oh, ow});
    ops::reference::conv2d_forward(x, w, bias, s, want);
    // The GEMM regroups each output's reduction (bias + full patch sum
    // instead of a running chain), so compare within tolerance.
    ops::conv2d_forward(x, w, bias, s, got, &workspace, nullptr);
    expect_near_rel(want, got, 1e-5f);
    ops::conv2d_forward(x, w, bias, s, got, &workspace, &pool);
    expect_near_rel(want, got, 1e-5f);
  }
}

TEST(OpsKernels, ConvBackwardMatchesReference) {
  Rng rng(22);
  ThreadPool pool(4);
  ops::Workspace workspace;
  for (const auto& c : kConvCases) {
    const auto& s = c.shape;
    const Tensor x = random_tensor({c.batch, s.in_channels, c.h, c.w}, rng);
    const Tensor w = random_tensor(
        {s.out_channels, s.in_channels, s.kernel, s.kernel}, rng);
    const std::size_t oh = s.out_extent(c.h), ow = s.out_extent(c.w);
    const Tensor dy = random_tensor({c.batch, s.out_channels, oh, ow}, rng);

    Tensor dx_want(x.shape()), dw_want(w.shape()), db_want({s.out_channels});
    ops::reference::conv2d_backward(x, w, s, dy, dx_want, dw_want, db_want);

    Tensor dx(x.shape()), dw(w.shape()), db({s.out_channels});
    ops::conv2d_backward(x, w, s, dy, dx, dw, db, &workspace, &pool);
    expect_near_rel(dx_want, dx, 1e-5f);
    expect_near_rel(dw_want, dw, 1e-5f);
    // dbias keeps the reference's exact (o, y, x) running-sum order.
    expect_bit_equal(db_want, db);
  }
}

TEST(OpsKernels, ConvBackwardShapeChecksThrow) {
#if !defined(TANGLEFL_DEBUG_CHECKS)
  GTEST_SKIP() << "TANGLEFL_DEBUG_CHECKS is off in this configuration";
#else
  Rng rng(23);
  const ops::Conv2DShape s{2, 3, 3, 1, 0};
  const Tensor x = random_tensor({1, 2, 6, 6}, rng);
  const Tensor w = random_tensor({3, 2, 3, 3}, rng);
  const Tensor dy = random_tensor({1, 3, 4, 4}, rng);
  Tensor dx(x.shape());
  Tensor dw(w.shape());
  Tensor db_bad({2});  // wrong: must be out_channels = 3
  EXPECT_THROW(ops::conv2d_backward(x, w, s, dy, dx, dw, db_bad),
               CheckFailure);

  Tensor db({3});
  Tensor dx_bad({1, 2, 5, 6});  // wrong input height
  EXPECT_THROW(ops::conv2d_backward(x, w, s, dy, dx_bad, dw, db),
               CheckFailure);

  const Tensor w_bad = random_tensor({3, 1, 3, 3}, rng);  // channel mismatch
  Tensor dw_bad(w_bad.shape());
  EXPECT_THROW(ops::conv2d_backward(x, w_bad, s, dy, dx, dw_bad, db),
               CheckFailure);
#endif
}

// ------------------------------------------------------------- fused LSTM

TEST(OpsKernels, LstmFusedMatchesReferencePath) {
  const std::size_t in = 7, hidden = 12, batch = 3, seq = 5;
  Rng rng(31);
  LSTM fused(in, hidden);
  Rng init(99);
  fused.init(init);
  LSTM oracle(in, hidden);
  Rng oracle_init(99);
  oracle.init(oracle_init);

  const Tensor x = random_tensor({batch, seq, in}, rng);
  const Tensor go = random_tensor({batch, seq, hidden}, rng);

  const Tensor y_fused = fused.forward(x, /*training=*/true);
  for (Tensor* g : fused.gradients()) g->zero();
  const Tensor dx_fused = fused.backward(go);

  const Tensor y_ref = oracle.forward_reference(x);
  for (Tensor* g : oracle.gradients()) g->zero();
  const Tensor dx_ref = oracle.backward_reference(go);

  // Forward, dx and dbias preserve the reference reduction order exactly.
  expect_bit_equal(y_ref, y_fused);
  expect_bit_equal(dx_ref, dx_fused);
  const auto grads_fused = fused.gradients();
  const auto grads_ref = oracle.gradients();
  ASSERT_EQ(grads_fused.size(), 3u);
  // dw_input_ / dw_hidden_ are regrouped (one whole-sequence GEMM instead
  // of per-timestep accumulation): tolerance.
  expect_near_rel(*grads_ref[0], *grads_fused[0], 1e-5f);
  expect_near_rel(*grads_ref[1], *grads_fused[1], 1e-5f);
  expect_bit_equal(*grads_ref[2], *grads_fused[2]);
}

// --------------------------------------------------------------- Workspace

TEST(OpsKernels, WorkspaceSpansStayValidAcrossGrowth) {
  ops::Workspace workspace;
  std::span<float> first = workspace.take(16);
  for (std::size_t i = 0; i < first.size(); ++i) {
    first[i] = static_cast<float>(i);
  }
  const float* first_data = first.data();
  // Force new chunks; the first span must not move.
  (void)workspace.take(1 << 16);
  (void)workspace.take(1 << 18);
  EXPECT_EQ(first.data(), first_data);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], static_cast<float>(i));
  }
}

TEST(OpsKernels, WorkspaceResetRecyclesWithoutReleasing) {
  ops::Workspace workspace;
  const std::span<float> a = workspace.take(100);
  (void)workspace.take(200);
  const std::size_t capacity = workspace.capacity();
  EXPECT_GE(capacity, 300u);

  workspace.reset();
  EXPECT_EQ(workspace.capacity(), capacity);
  const std::span<float> again = workspace.take(100);
  // Same storage handed out again: steady state allocates nothing.
  EXPECT_EQ(again.data(), a.data());
  EXPECT_EQ(workspace.capacity(), capacity);
}

// -------------------------------------------- end-to-end pool bit-identity

std::vector<float> train_cnn_params(ThreadPool* kernel_pool) {
  ImageCnnConfig cnn;
  cnn.image_size = 14;
  Model model = make_image_cnn(cnn);
  Rng init(5);
  model.init(init);

  data::DataSplit split;
  Rng data_rng(6);
  split.features = random_tensor({24, 1, 14, 14}, data_rng);
  split.labels.resize(24);
  for (std::size_t i = 0; i < split.labels.size(); ++i) {
    split.labels[i] = static_cast<std::int32_t>(i % cnn.num_classes);
  }

  data::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.kernel_pool = kernel_pool;
  Rng train_rng(7);
  data::train_local(model, split, config, train_rng);
  return model.get_parameters();
}

std::vector<float> train_lstm_params(ThreadPool* kernel_pool) {
  CharLstmConfig lstm;
  Model model = make_char_lstm(lstm);
  Rng init(8);
  model.init(init);

  data::DataSplit split;
  Rng data_rng(9);
  split.features = Tensor({16, lstm.seq_length});
  auto tokens = split.features.values();
  for (auto& t : tokens) {
    t = static_cast<float>(data_rng.uniform_index(lstm.vocab_size));
  }
  split.labels.resize(16);
  for (std::size_t i = 0; i < split.labels.size(); ++i) {
    split.labels[i] =
        static_cast<std::int32_t>(data_rng.uniform_index(lstm.vocab_size));
  }

  data::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.kernel_pool = kernel_pool;
  Rng train_rng(10);
  data::train_local(model, split, config, train_rng);
  return model.get_parameters();
}

TEST(OpsKernels, TrainLocalBitIdenticalAcrossPoolSizes) {
  const std::vector<float> serial_cnn = train_cnn_params(nullptr);
  const std::vector<float> serial_lstm = train_lstm_params(nullptr);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    const std::vector<float> cnn = train_cnn_params(&pool);
    const std::vector<float> lstm = train_lstm_params(&pool);
    ASSERT_EQ(serial_cnn.size(), cnn.size());
    EXPECT_EQ(std::memcmp(serial_cnn.data(), cnn.data(),
                          cnn.size() * sizeof(float)),
              0)
        << "CNN params differ with " << workers << " kernel workers";
    ASSERT_EQ(serial_lstm.size(), lstm.size());
    EXPECT_EQ(std::memcmp(serial_lstm.data(), lstm.data(),
                          lstm.size() * sizeof(float)),
              0)
        << "LSTM params differ with " << workers << " kernel workers";
  }
}

}  // namespace
}  // namespace tanglefl::nn
