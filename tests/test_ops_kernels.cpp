// Equivalence tests for the blocked/tiled kernels in nn/ops.cpp against the
// pre-optimization loops preserved in ops::reference, plus the bit-identity
// guarantees of the determinism contract:
//   - the matmul family matches the reference bitwise (same per-element
//     reduction order), with or without a ThreadPool, and so does each
//     register tile (AVX and portable) run directly;
//   - conv and the fused-LSTM weight gradients regroup the reduction, so
//     they match the naive loops within a relative tolerance instead; conv
//     matches the im2col + GEMM composition it was built from bitwise;
//   - train_local produces byte-identical parameters for any kernel-pool
//     size, and a golden digest pins them on the paper CNN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "data/training.hpp"
#include "nn/layer.hpp"
#include "nn/model_zoo.hpp"
#include "nn/ops.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/sha256.hpp"
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

// Cover the register-tile interior, every edge case (tails in each
// dimension), and degenerate single-row/column shapes.
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

// ------------------------------------------------------ tile shape sweep
//
// Every GEMM entry point, and each register tile through its row driver,
// against ops::reference on the paper CNN's shapes and on remainders around
// the 8x8 tile, under both Accumulate modes. Each case is an output (m, n)
// with reduction length k.

std::vector<GemmShape> tile_sweep_shapes() {
  // Conv forward (16,72,49) and (8,9,196), conv backward's trans-A
  // (9,8,196), Linear forward (10,144,64) and (10,64,10).
  std::vector<GemmShape> shapes = {
      {16, 72, 49}, {8, 9, 196}, {9, 8, 196}, {10, 144, 64}, {10, 64, 10}};
  for (const std::size_t m : {1, 7, 8, 9, 15, 16, 17}) {
    for (const std::size_t n : {1, 7, 8, 9, 15, 16, 17}) {
      shapes.push_back({m, 13, n});
    }
  }
  return shapes;
}

enum class Variant { kPlain, kTransA, kTransB, kPrepacked };
constexpr Variant kVariants[] = {Variant::kPlain, Variant::kTransA,
                                 Variant::kTransB, Variant::kPrepacked};
constexpr ops::Accumulate kModes[] = {ops::Accumulate::kOverwrite,
                                      ops::Accumulate::kAdd};

Tensor transpose(const Tensor& t) {
  Tensor out({t.dim(1), t.dim(0)});
  for (std::size_t i = 0; i < t.dim(0); ++i) {
    for (std::size_t j = 0; j < t.dim(1); ++j) out.at(j, i) = t.at(i, j);
  }
  return out;
}

// One sweep case: operands in the variant's own layout (trans-A reads
// A(k, m), trans-B reads B(n, k)), a seed for kAdd, and the expected output
// for each mode.
struct SweepCase {
  GemmShape s;
  Variant variant;
  Tensor a, b, seed, want_overwrite, want_add;

  SweepCase(const GemmShape& shape, Variant v, Rng& rng)
      : s(shape), variant(v) {
    a = variant == Variant::kTransA ? random_tensor({s.k, s.m}, rng)
                                    : random_tensor({s.m, s.k}, rng);
    b = variant == Variant::kTransB ? random_tensor({s.n, s.k}, rng)
                                    : random_tensor({s.k, s.n}, rng);
    seed = random_tensor({s.m, s.n}, rng);
    want_overwrite = Tensor({s.m, s.n});
    if (variant == Variant::kTransA) {
      ops::reference::matmul_trans_a(a, b, want_overwrite);
    } else if (variant == Variant::kTransB) {
      ops::reference::matmul_trans_b(a, b, want_overwrite);
    } else {
      ops::reference::matmul(a, b, want_overwrite);
    }
    // kAdd adds the register-reduced product onto C once per element.
    want_add = seed;
    for (std::size_t i = 0; i < want_add.size(); ++i) {
      want_add[i] += want_overwrite[i];
    }
  }

  const Tensor& want(ops::Accumulate mode) const {
    return mode == ops::Accumulate::kAdd ? want_add : want_overwrite;
  }
  Tensor start(ops::Accumulate mode) const {
    return mode == ops::Accumulate::kAdd ? seed : Tensor({s.m, s.n});
  }
};

TEST(OpsKernels, GemmEntryPointsMatchReferenceOnTileSweep) {
  Rng rng(16);
  for (const GemmShape& s : tile_sweep_shapes()) {
    for (const Variant variant : kVariants) {
      const SweepCase sc(s, variant, rng);
      std::vector<float> packed(ops::gemm_packed_b_floats(s.k, s.n));
      ops::gemm_pack_b(sc.b.data(), s.n, s.k, s.n, packed.data());
      for (const ops::Accumulate mode : kModes) {
        SCOPED_TRACE(testing::Message()
                     << "m=" << s.m << " k=" << s.k << " n=" << s.n
                     << " variant=" << static_cast<int>(variant)
                     << " add=" << (mode == ops::Accumulate::kAdd));
        Tensor got = sc.start(mode);
        switch (variant) {
          case Variant::kPlain:
            ops::gemm(sc.a.data(), s.k, sc.b.data(), s.n, got.data(), s.n,
                      s.m, s.k, s.n, mode);
            break;
          case Variant::kTransA:
            ops::gemm_trans_a(sc.a.data(), s.m, sc.b.data(), s.n, got.data(),
                              s.n, s.k, s.m, s.n, mode);
            break;
          case Variant::kTransB:
            ops::gemm_trans_b(sc.a.data(), s.k, sc.b.data(), s.k, got.data(),
                              s.n, s.m, s.k, s.n, mode);
            break;
          case Variant::kPrepacked:
            ops::gemm_prepacked_b(sc.a.data(), s.k, packed.data(), got.data(),
                                  s.n, s.m, s.k, s.n, mode);
            break;
        }
        expect_bit_equal(sc.want(mode), got);
      }
    }
  }
}

using RowDriver = void (*)(const float*, std::size_t, const float*, float*,
                           std::size_t, std::size_t, std::size_t, std::size_t,
                           std::size_t, ops::Accumulate);

// Runs one row driver on every sweep case, over all rows at once and in the
// 8-row chunks a kernel pool hands out. The test lays out each variant's
// operands the way its entry point packs them (A^T for trans-A, B^T for
// trans-B; packing is pure data movement).
void expect_row_driver_matches_reference(RowDriver driver) {
  Rng rng(17);
  for (const GemmShape& s : tile_sweep_shapes()) {
    for (const Variant variant : kVariants) {
      const SweepCase sc(s, variant, rng);
      const Tensor a =
          variant == Variant::kTransA ? transpose(sc.a) : sc.a;
      const Tensor b =
          variant == Variant::kTransB ? transpose(sc.b) : sc.b;
      std::vector<float> packed(ops::gemm_packed_b_floats(s.k, s.n));
      ops::gemm_pack_b(b.data(), s.n, s.k, s.n, packed.data());
      for (const ops::Accumulate mode : kModes) {
        SCOPED_TRACE(testing::Message()
                     << "m=" << s.m << " k=" << s.k << " n=" << s.n
                     << " variant=" << static_cast<int>(variant)
                     << " add=" << (mode == ops::Accumulate::kAdd));
        Tensor whole = sc.start(mode);
        driver(a.data(), s.k, packed.data(), whole.data(), s.n, s.k, 0, s.m,
               s.n, mode);
        expect_bit_equal(sc.want(mode), whole);
        Tensor chunked = sc.start(mode);
        for (std::size_t r0 = 0; r0 < s.m; r0 += 8) {
          driver(a.data(), s.k, packed.data(), chunked.data(), s.n, s.k, r0,
                 std::min(s.m, r0 + 8), s.n, mode);
        }
        expect_bit_equal(sc.want(mode), chunked);
      }
    }
  }
}

TEST(OpsKernels, PortableTileMatchesReferenceOnTileSweep) {
  expect_row_driver_matches_reference(ops::detail::gemm_rows_portable);
}

TEST(OpsKernels, AvxTileMatchesReferenceOnTileSweep) {
  if (!ops::detail::gemm_avx_supported()) {
    GTEST_SKIP() << "this CPU does not run AVX";
  }
  expect_row_driver_matches_reference(ops::detail::gemm_rows_avx);
}

TEST(OpsKernels, AvxProbeAgreesWithCompilerRuntime) {
  // A probe that wrongly said "no" would fall back to the portable tile and
  // pass every bitwise test; pin it to the compiler runtime's answer.
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(ops::detail::gemm_avx_supported(),
            __builtin_cpu_supports("avx") != 0);
#else
  EXPECT_FALSE(ops::detail::gemm_avx_supported());
#endif
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
    ops::conv2d_backward(x, w, s, dy, &dx, dw, db, &workspace, &pool);
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
  EXPECT_THROW(ops::conv2d_backward(x, w, s, dy, &dx, dw, db_bad),
               CheckFailure);

  Tensor db({3});
  Tensor dx_bad({1, 2, 5, 6});  // wrong input height
  EXPECT_THROW(ops::conv2d_backward(x, w, s, dy, &dx_bad, dw, db),
               CheckFailure);

  const Tensor w_bad = random_tensor({3, 1, 3, 3}, rng);  // channel mismatch
  Tensor dw_bad(w_bad.shape());
  EXPECT_THROW(ops::conv2d_backward(x, w_bad, s, dy, &dx, dw_bad, db),
               CheckFailure);
#endif
}

// --------------------------------------------------- bitwise conv sweep
//
// The lowering writes GEMM operands straight into packed panels through a
// zero-padded plane. It must give exactly the bits of the composition it
// replaced, which this oracle spells out: a row-major im2col buffer with
// the patch axis in (c, ky, kx) order, ops::gemm for the forward,
// gemm_trans_b for dW, gemm_trans_a plus a bounds-tested col2im for dx,
// and per-channel dbias chains.

struct SweepGeometry {
  std::size_t h, w, ic, k, stride, pad, oh, ow;
  SweepGeometry(std::size_t in_h, std::size_t in_w, const ops::Conv2DShape& s)
      : h(in_h),
        w(in_w),
        ic(s.in_channels),
        k(s.kernel),
        stride(s.stride),
        pad(s.padding),
        oh(s.out_extent(in_h)),
        ow(s.out_extent(in_w)) {}

  // Input coordinate of output index o and kernel tap t, or -1 if padding.
  std::ptrdiff_t input(std::size_t o, std::size_t t, std::size_t extent) const {
    const auto i = static_cast<std::ptrdiff_t>(o * stride + t) -
                   static_cast<std::ptrdiff_t>(pad);
    return i < 0 || i >= static_cast<std::ptrdiff_t>(extent) ? -1 : i;
  }
};

std::vector<float> oracle_im2col(const float* x, const SweepGeometry& g) {
  std::vector<float> col(g.ic * g.k * g.k * g.oh * g.ow, 0.0f);
  std::size_t i = 0;
  for (std::size_t c = 0; c < g.ic; ++c) {
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx) {
        for (std::size_t yy = 0; yy < g.oh; ++yy) {
          for (std::size_t xx = 0; xx < g.ow; ++xx, ++i) {
            const std::ptrdiff_t iy = g.input(yy, ky, g.h);
            const std::ptrdiff_t ix = g.input(xx, kx, g.w);
            if (iy >= 0 && ix >= 0) {
              col[i] = x[(c * g.h + static_cast<std::size_t>(iy)) * g.w +
                         static_cast<std::size_t>(ix)];
            }
          }
        }
      }
    }
  }
  return col;
}

void oracle_col2im_add(const std::vector<float>& col, const SweepGeometry& g,
                       float* dx) {
  std::size_t i = 0;
  for (std::size_t c = 0; c < g.ic; ++c) {
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx) {
        for (std::size_t yy = 0; yy < g.oh; ++yy) {
          for (std::size_t xx = 0; xx < g.ow; ++xx, ++i) {
            const std::ptrdiff_t iy = g.input(yy, ky, g.h);
            const std::ptrdiff_t ix = g.input(xx, kx, g.w);
            if (iy >= 0 && ix >= 0) {
              dx[(c * g.h + static_cast<std::size_t>(iy)) * g.w +
                 static_cast<std::size_t>(ix)] += col[i];
            }
          }
        }
      }
    }
  }
}

Tensor oracle_conv_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                           const ops::Conv2DShape& s, ThreadPool* pool) {
  const SweepGeometry g(x.dim(2), x.dim(3), s);
  const std::size_t batch = x.dim(0), oc = s.out_channels;
  const std::size_t ckk = g.ic * g.k * g.k, ohow = g.oh * g.ow;
  Tensor y({batch, oc, g.oh, g.ow});
  for (std::size_t b = 0; b < batch; ++b) {
    const std::vector<float> col =
        oracle_im2col(x.data() + b * g.ic * g.h * g.w, g);
    float* yb = y.data() + b * oc * ohow;
    for (std::size_t o = 0; o < oc; ++o) {
      std::fill_n(yb + o * ohow, ohow, bias[o]);
    }
    ops::gemm(w.data(), ckk, col.data(), ohow, yb, ohow, oc, ckk, ohow,
              ops::Accumulate::kAdd, pool);
  }
  return y;
}

void oracle_conv_backward(const Tensor& x, const Tensor& w,
                          const ops::Conv2DShape& s, const Tensor& dy,
                          Tensor* dx, Tensor& dw, Tensor& db,
                          ThreadPool* pool) {
  const SweepGeometry g(x.dim(2), x.dim(3), s);
  const std::size_t batch = x.dim(0), oc = s.out_channels;
  const std::size_t ckk = g.ic * g.k * g.k, ohow = g.oh * g.ow;
  if (dx != nullptr) dx->zero();
  std::vector<float> dcol(ckk * ohow);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dyb = dy.data() + b * oc * ohow;
    for (std::size_t o = 0; o < oc; ++o) {
      float acc = db[o];
      for (std::size_t i = 0; i < ohow; ++i) acc += dyb[o * ohow + i];
      db[o] = acc;
    }
    const std::vector<float> col =
        oracle_im2col(x.data() + b * g.ic * g.h * g.w, g);
    ops::gemm_trans_b(dyb, ohow, col.data(), ohow, dw.data(), ckk, oc, ohow,
                      ckk, ops::Accumulate::kAdd, pool);
    if (dx == nullptr) continue;
    ops::gemm_trans_a(w.data(), ckk, dyb, ohow, dcol.data(), ohow, oc, ckk,
                      ohow, ops::Accumulate::kOverwrite, pool);
    oracle_col2im_add(dcol, g, dx->data() + b * g.ic * g.h * g.w);
  }
}

struct ConvSweepCase {
  std::size_t batch, h, w;
  ops::Conv2DShape shape;
};

// k in {1, 3, 5} at stride 1 ("same" and unpadded) and stride 2 with
// padding, ic in {1, 3, 8}, batch 1 and 10, on a 9x12 input: output areas
// such as 108, 70 and 30 leave a partial 8-lane panel, and so do patch
// counts such as 9, 27 and 75, while 12- and 10-wide stride-1 output rows
// give full panels that are one contiguous run. oc 12 gives the pool more
// than one 8-row chunk.
std::vector<ConvSweepCase> conv_sweep_cases() {
  std::vector<ConvSweepCase> cases;
  std::size_t n = 0;
  for (const std::size_t ic : {1, 3, 8}) {
    for (const std::size_t k : {1, 3, 5}) {
      const ops::Conv2DShape shapes[] = {{ic, 12, k, 1, k / 2},
                                         {ic, 5, k, 1, 0},
                                         {ic, 12, k, 2, 1}};
      for (const ops::Conv2DShape& s : shapes) {
        cases.push_back({n++ % 2 == 0 ? 10u : 1u, 9, 12, s});
      }
    }
  }
  return cases;
}

std::string describe(const ConvSweepCase& c) {
  const auto& s = c.shape;
  return testing::PrintToString(std::vector<std::size_t>{
      c.batch, c.h, c.w, s.in_channels, s.out_channels, s.kernel, s.stride,
      s.padding});
}

TEST(OpsKernels, ConvSweepBitwiseMatchesIm2colComposition) {
  Rng rng(24);
  ThreadPool workers(4);
  ops::Workspace workspace;
  for (const ConvSweepCase& c : conv_sweep_cases()) {
    const auto& s = c.shape;
    const Tensor x = random_tensor({c.batch, s.in_channels, c.h, c.w}, rng);
    const Tensor w = random_tensor(
        {s.out_channels, s.in_channels, s.kernel, s.kernel}, rng);
    const Tensor bias = random_tensor({s.out_channels}, rng);
    const std::size_t oh = s.out_extent(c.h), ow = s.out_extent(c.w);
    const Tensor dy = random_tensor({c.batch, s.out_channels, oh, ow}, rng);
    // Nonzero gradient seeds: dw and dbias accumulate.
    const Tensor dw_seed = random_tensor(w.shape(), rng);
    const Tensor db_seed = random_tensor({s.out_channels}, rng);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &workers}) {
      SCOPED_TRACE(describe(c) + (pool == nullptr ? " serial" : " pool 4"));
      const Tensor y_want = oracle_conv_forward(x, w, bias, s, pool);

      Tensor y({c.batch, s.out_channels, oh, ow});
      ops::conv2d_forward(x, w, bias, s, y, &workspace, pool);
      expect_bit_equal(y_want, y);

      std::vector<float> packed(
          c.batch * ops::conv2d_packed_input_floats(s, c.h, c.w));
      ops::conv2d_pack_input(x, s, packed, &workspace);
      Tensor y_prepacked({c.batch, s.out_channels, oh, ow});
      ops::conv2d_forward_prepacked(packed, c.batch, c.h, c.w, w, bias, s,
                                    y_prepacked, pool);
      expect_bit_equal(y_want, y_prepacked);

      Tensor dx_want(x.shape()), dw_want = dw_seed, db_want = db_seed;
      oracle_conv_backward(x, w, s, dy, &dx_want, dw_want, db_want, pool);
      Tensor dx(x.shape()), dw = dw_seed, db = db_seed;
      dx.fill(std::numeric_limits<float>::quiet_NaN());  // overwritten
      ops::conv2d_backward(x, w, s, dy, &dx, dw, db, &workspace, pool);
      expect_bit_equal(dx_want, dx);
      expect_bit_equal(dw_want, dw);
      expect_bit_equal(db_want, db);

      // Without dx: the same parameter gradients.
      Tensor dw_only = dw_seed, db_only = db_seed;
      ops::conv2d_backward(x, w, s, dy, nullptr, dw_only, db_only, &workspace,
                           pool);
      expect_bit_equal(dw_want, dw_only);
      expect_bit_equal(db_want, db_only);
    }
  }
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

// The default ImageCnnConfig is the paper's FEMNIST CNN: 14x14 input, 8/16
// conv channels, hidden 64.
std::vector<float> train_cnn_params(ThreadPool* kernel_pool,
                                    std::size_t batch_size = 8) {
  ImageCnnConfig cnn;
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
  config.batch_size = batch_size;
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

TEST(OpsKernels, PaperCnnTrainLocalGoldenDigest) {
  // Batch 10 runs the paper CNN's real GEMM shapes: conv (8,9,196) and
  // (16,72,49) with their backward transposes, and Linear (10,144,64) and
  // (10,64,10), so full 8-row tiles and every row and column remainder
  // feed the trained parameters. The 24 samples end in a 4-row batch.
  const std::vector<float> params = train_cnn_params(nullptr, 10);
  const Sha256Digest digest = Sha256::hash(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(params.data()),
      params.size() * sizeof(float)));
  EXPECT_EQ(to_hex(digest),
            "f4c13d07c994f4e8772ada2786c5abc3d80628eae346d214cf96b6f9385d9db2");
}

}  // namespace
}  // namespace tanglefl::nn
