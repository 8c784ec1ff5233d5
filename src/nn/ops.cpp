// Blocked, register-tiled kernel family behind the ops:: API.
//
// Every kernel accumulates each output element in strictly ascending
// reduction-index order: a register tile carries the full reduction for its
// output block, so no k-splitting ever re-associates floating-point adds,
// and the optional ThreadPool only partitions *output rows* into fixed-size
// chunks. Results are therefore bit-identical for any pool size (including
// none) and identical to a serial run. See DESIGN.md "Compute kernels".
//
// Allocation policy (enforced by tools/lint.py rule ops-allocation): no
// Tensor construction and no raw new/malloc in this file — scratch memory
// comes from a caller-provided or per-thread ops::Workspace so steady-state
// training steps do not allocate.
#include "nn/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace tanglefl::nn::ops {
namespace {

// ------------------------------------------------------------ observability

obs::Counter& gemm_flop_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("nn.gemm.flops");
  return counter;
}

obs::Histogram& gemm_time_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "nn.gemm.us", obs::BucketLayout::exponential(1.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

obs::Counter& conv_flop_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("nn.conv.flops");
  return counter;
}

obs::Histogram& conv_time_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "nn.conv.us", obs::BucketLayout::exponential(1.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

// Records elapsed microseconds into `hist` on destruction, but only when
// timing collection is on: a TraceScope here would flood trace sinks with
// one span per GEMM, so the hot path reads the clock directly instead.
class KernelTimer {
 public:
  explicit KernelTimer(obs::Histogram& hist) noexcept
      : hist_(obs::timing_enabled() ? &hist : nullptr),
        start_(hist_ != nullptr ? Stopwatch::now_micros() : 0) {}
  ~KernelTimer() {
    if (hist_ != nullptr) {
      hist_->record(static_cast<double>(Stopwatch::now_micros() - start_));
    }
  }
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  obs::Histogram* hist_;
  std::uint64_t start_;
};

// Fallback arena for callers that pass no Workspace (one-off tests, direct
// ops usage). Thread-local so concurrent node steps never share scratch.
Workspace& thread_workspace() {
  thread_local Workspace workspace;
  return workspace;
}

// Separate arena for GEMM operand packing. It must not be the conv fallback
// arena above: conv2d builds its im2col buffer there and then calls gemm,
// which resets its pack arena per call — sharing one arena would clobber
// the im2col buffer mid-convolution.
Workspace& pack_workspace() {
  thread_local Workspace workspace;
  return workspace;
}

// ------------------------------------------------------- register microtiles
//
// The register tile is kRowTile output rows x kColTile output columns; the
// full reduction for the tile is carried in the `acc` array (which the
// compiler keeps in vector registers for the constant-bound variants), so
// each output element is one ascending-index chain — the same order as the
// naive reference loops, just batched for locality and ILP.

// 4x8 keeps the accumulator tile (8 XMM registers) plus the B strip and
// the broadcast lane inside the 16 XMM registers of baseline x86-64 SSE2;
// a wider tile spills to the stack every iteration on builds without
// TANGLEFL_NATIVE_ARCH.
constexpr std::size_t kRowTile = 4;
constexpr std::size_t kColTile = 8;

// The hot tile uses GCC/Clang vector extensions rather than relying on the
// auto-vectorizer: depending on inlining context and which strides constant-
// propagate, GCC's SLP pass sometimes re-vectorizes the accumulator across
// the depth axis (a horizontal-shuffle storm ~5x slower than the broadcast
// form). Explicit lane vectors pin the good shape. Every vector op below is
// element-wise, so each acc lane remains a single ascending-depth scalar
// chain — bit-identical to the scalar fallback (and -ffp-contract=off keeps
// fused multiply-adds out of both).
#if defined(__GNUC__) || defined(__clang__)
#define TANGLEFL_SIMD_TILE 1
using v4f [[gnu::may_alias]] = float __attribute__((vector_size(16), aligned(4)));
static_assert(kColTile % 4 == 0);
#endif

// A is addressed as a[row * a_row_stride + p * a_depth_stride]: plain GEMM
// passes (lda, 1); trans-A passes (1, lda) so the same tile serves both.
//
// noinline is load-bearing for throughput, not a style choice: when the
// tile body is inlined into the surrounding blocked loops, GCC's SLP
// vectorizer re-associates the accumulator across the depth axis and emits
// a horizontal-shuffle storm that runs ~5x slower than the broadcast form
// it produces when the function is compiled in isolation.
template <bool kAccumulate>
[[gnu::noinline]] void tile_full(const float* a, std::size_t a_row_stride,
                      std::size_t a_depth_stride, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t depth) {
#if defined(TANGLEFL_SIMD_TILE)
  constexpr std::size_t kLanes = kColTile / 4;
  v4f acc[kRowTile][kLanes] = {};
  for (std::size_t p = 0; p < depth; ++p) {
    const float* brow = b + p * ldb;
    v4f bv[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      bv[l] = *reinterpret_cast<const v4f*>(brow + 4 * l);
    }
    const float* ap = a + p * a_depth_stride;
    for (std::size_t r = 0; r < kRowTile; ++r) {
      const float av = ap[r * a_row_stride];
      const v4f avv = {av, av, av, av};
      for (std::size_t l = 0; l < kLanes; ++l) acc[r][l] += avv * bv[l];
    }
  }
  for (std::size_t r = 0; r < kRowTile; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t l = 0; l < kLanes; ++l) {
      v4f* cv = reinterpret_cast<v4f*>(crow + 4 * l);
      if constexpr (kAccumulate) {
        *cv += acc[r][l];
      } else {
        *cv = acc[r][l];
      }
    }
  }
#else
  float acc[kRowTile][kColTile] = {};
  for (std::size_t p = 0; p < depth; ++p) {
    const float* brow = b + p * ldb;
    float bv[kColTile];
    for (std::size_t j = 0; j < kColTile; ++j) bv[j] = brow[j];
    const float* ap = a + p * a_depth_stride;
    for (std::size_t r = 0; r < kRowTile; ++r) {
      const float av = ap[r * a_row_stride];
      for (std::size_t j = 0; j < kColTile; ++j) acc[r][j] += av * bv[j];
    }
  }
  for (std::size_t r = 0; r < kRowTile; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t j = 0; j < kColTile; ++j) {
      if constexpr (kAccumulate) {
        crow[j] += acc[r][j];
      } else {
        crow[j] = acc[r][j];
      }
    }
  }
#endif
}

// Runtime-bound edge tile for the <kRowTile x <kColTile remainders.
template <bool kAccumulate>
inline void tile_edge(const float* a, std::size_t a_row_stride,
                      std::size_t a_depth_stride, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc,
                      std::size_t depth, std::size_t rows, std::size_t cols) {
  float acc[kRowTile][kColTile] = {};
  for (std::size_t p = 0; p < depth; ++p) {
    const float* brow = b + p * ldb;
    const float* ap = a + p * a_depth_stride;
    for (std::size_t r = 0; r < rows; ++r) {
      const float av = ap[r * a_row_stride];
      for (std::size_t j = 0; j < cols; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t j = 0; j < cols; ++j) {
      if constexpr (kAccumulate) {
        crow[j] += acc[r][j];
      } else {
        crow[j] = acc[r][j];
      }
    }
  }
}

// ---------------------------------------------------------- operand packing
//
// B is copied into kColTile-wide depth-major panels before the tile loops
// run: panel jb holds B columns [jb*kColTile, jb*kColTile + kColTile) as
// `depth` consecutive kColTile-float strips. Two effects: the tile's B
// loads become a sequential stream (the raw layout walks B with an ldb*4
// byte stride — 4 KiB for the LSTM's 1024-wide gate matrices, which maps
// every load to the same L1 set and thrashes it), and each row tile's A
// block then stays L1-resident across all column strips. Packing is pure
// data movement, so every output element keeps its exact ascending-depth
// reduction chain — results are bit-identical to the unpacked loops.

// Panel floats needed for a (depth x n) B operand, tail panel included.
std::size_t packed_b_floats(std::size_t depth, std::size_t n) {
  return ((n + kColTile - 1) / kColTile) * depth * kColTile;
}

// Packs row-major B(depth, n): panel[jb][p][l] = B(p, jb*kColTile + l).
// Tail lanes of the last panel are zero-filled; only tile_edge reads that
// panel and it stops at the valid column count, but the fill keeps the
// buffer fully initialised.
void pack_b(const float* b, std::size_t ldb, std::size_t depth, std::size_t n,
            float* packed) {
  for (std::size_t p = 0; p < depth; ++p) {
    const float* brow = b + p * ldb;
    float* out = packed + p * kColTile;
    std::size_t j = 0;
    for (; j + kColTile <= n; j += kColTile) {
      std::memcpy(out, brow + j, kColTile * sizeof(float));
      out += depth * kColTile;
    }
    if (j < n) {
      std::memcpy(out, brow + j, (n - j) * sizeof(float));
      std::fill(out + (n - j), out + kColTile, 0.0f);
    }
  }
}

// Packs column-major-read B for gemm_trans_b: the operand is row-major
// B(n, k) used as B^T, so panel[jb][p][l] = B(jb*kColTile + l, p). Each
// source row is contiguous, so this is n strided scatter passes.
void pack_b_transposed(const float* b, std::size_t ldb, std::size_t depth,
                       std::size_t n, float* packed) {
  for (std::size_t j = 0; j < n; j += kColTile) {
    const std::size_t cols = std::min(kColTile, n - j);
    float* panel = packed + (j / kColTile) * depth * kColTile;
    for (std::size_t l = 0; l < cols; ++l) {
      const float* brow = b + (j + l) * ldb;
      for (std::size_t p = 0; p < depth; ++p) {
        panel[p * kColTile + l] = brow[p];
      }
    }
    if (cols < kColTile) {
      for (std::size_t p = 0; p < depth; ++p) {
        std::fill(panel + p * kColTile + cols, panel + (p + 1) * kColTile,
                  0.0f);
      }
    }
  }
}

// Transposes A(m, k) into At(k, m) so gemm_trans_a's output-row tiles read
// contiguous At rows instead of striding lda floats per reduction step.
void pack_a_transposed(const float* a, std::size_t lda, std::size_t m,
                       std::size_t k, float* at) {
  for (std::size_t p = 0; p < m; ++p) {
    const float* arow = a + p * lda;
    for (std::size_t i = 0; i < k; ++i) at[i * m + p] = arow[i];
  }
}

// Computes output rows [r0, r1) of an (m, n) product whose reduction length
// is `depth`, reading B from packed panels. Shared by all three GEMM
// variants (trans-A packs A^T first so its strides look like plain GEMM).
template <bool kAccumulate>
void product_rows(const float* a, std::size_t a_row_stride,
                  std::size_t a_depth_stride, const float* packed_b, float* c,
                  std::size_t ldc, std::size_t depth, std::size_t r0,
                  std::size_t r1, std::size_t n) {
  const std::size_t panel_stride = depth * kColTile;
  std::size_t i = r0;
  for (; i + kRowTile <= r1; i += kRowTile) {
    const float* ai = a + i * a_row_stride;
    float* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + kColTile <= n; j += kColTile) {
      tile_full<kAccumulate>(ai, a_row_stride, a_depth_stride,
                             packed_b + (j / kColTile) * panel_stride,
                             kColTile, ci + j, ldc, depth);
    }
    if (j < n) {
      tile_edge<kAccumulate>(ai, a_row_stride, a_depth_stride,
                             packed_b + (j / kColTile) * panel_stride,
                             kColTile, ci + j, ldc, depth, kRowTile, n - j);
    }
  }
  if (i < r1) {
    const float* ai = a + i * a_row_stride;
    float* ci = c + i * ldc;
    for (std::size_t j = 0; j < n; j += kColTile) {
      tile_edge<kAccumulate>(ai, a_row_stride, a_depth_stride,
                             packed_b + (j / kColTile) * panel_stride,
                             kColTile, ci + j, ldc, depth, r1 - i,
                             std::min(kColTile, n - j));
    }
  }
}

// --------------------------------------------------------- row partitioning

// Output-row chunk handed to each pool task. Fixed (never derived from the
// pool size) so the work decomposition itself is scheduling-independent;
// row results are disjoint, so any assignment of chunks to threads yields
// the same bits anyway.
constexpr std::size_t kParallelRowChunk = 8;
// Below this many flops the parallel_for bookkeeping costs more than the
// kernel; run serially on the calling thread.
constexpr std::size_t kParallelMinFlops = std::size_t{1} << 18;

template <typename SerialRows>
void partition_rows(ThreadPool* pool, std::size_t m, std::size_t flops,
                    const SerialRows& serial_rows) {
  if (pool == nullptr || m <= kParallelRowChunk ||
      flops < kParallelMinFlops) {
    serial_rows(std::size_t{0}, m);
    return;
  }
  const std::size_t tasks = (m + kParallelRowChunk - 1) / kParallelRowChunk;
  pool->parallel_for(tasks, [&](std::size_t task) {
    const std::size_t r0 = task * kParallelRowChunk;
    serial_rows(r0, std::min(m, r0 + kParallelRowChunk));
  });
}

// ------------------------------------------------------------ im2col/col2im

// Packs one sample (ic, h, w) into col(ic*k*k, oh*ow) with the patch axis
// in (c, ky, kx) order — the reduction order of the naive conv loops — so
// the GEMM accumulates weight-patch products in the same sequence.
void im2col(const float* x, std::size_t ic, std::size_t h, std::size_t w,
            std::size_t k, std::size_t stride, std::size_t pad, std::size_t oh,
            std::size_t ow, float* col) {
  for (std::size_t c = 0; c < ic; ++c) {
    const float* xc = x + c * h * w;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        float* row = col + ((c * k + ky) * k + kx) * (oh * ow);
        for (std::size_t yy = 0; yy < oh; ++yy) {
          const std::ptrdiff_t in_y =
              static_cast<std::ptrdiff_t>(yy * stride + ky) -
              static_cast<std::ptrdiff_t>(pad);
          float* out = row + yy * ow;
          if (in_y < 0 || in_y >= static_cast<std::ptrdiff_t>(h)) {
            std::fill_n(out, ow, 0.0f);
            continue;
          }
          const float* xrow = xc + static_cast<std::size_t>(in_y) * w;
          if (stride == 1) {
            // in_x = xx + kx - pad stays contiguous: zero the out-of-bounds
            // edges and memcpy the valid middle.
            const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(kx) -
                                         static_cast<std::ptrdiff_t>(pad);
            const std::size_t x_begin =
                shift < 0 ? static_cast<std::size_t>(-shift) : 0;
            const std::ptrdiff_t x_limit = std::min<std::ptrdiff_t>(
                static_cast<std::ptrdiff_t>(ow),
                static_cast<std::ptrdiff_t>(w) - shift);
            const std::size_t x_end =
                x_limit < static_cast<std::ptrdiff_t>(x_begin)
                    ? x_begin
                    : static_cast<std::size_t>(x_limit);
            std::fill(out, out + x_begin, 0.0f);
            if (x_end > x_begin) {
              std::memcpy(out + x_begin,
                          xrow + static_cast<std::size_t>(
                                     static_cast<std::ptrdiff_t>(x_begin) +
                                     shift),
                          (x_end - x_begin) * sizeof(float));
            }
            std::fill(out + x_end, out + ow, 0.0f);
          } else {
            for (std::size_t xx = 0; xx < ow; ++xx) {
              const std::ptrdiff_t in_x =
                  static_cast<std::ptrdiff_t>(xx * stride + kx) -
                  static_cast<std::ptrdiff_t>(pad);
              out[xx] = (in_x < 0 || in_x >= static_cast<std::ptrdiff_t>(w))
                            ? 0.0f
                            : xrow[static_cast<std::size_t>(in_x)];
            }
          }
        }
      }
    }
  }
}

// Scatter-adds dcol(ic*k*k, oh*ow) back into one sample's dx(ic, h, w);
// padding positions are simply dropped.
void col2im_add(const float* col, std::size_t ic, std::size_t h, std::size_t w,
                std::size_t k, std::size_t stride, std::size_t pad,
                std::size_t oh, std::size_t ow, float* dx) {
  for (std::size_t c = 0; c < ic; ++c) {
    float* xc = dx + c * h * w;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        const float* row = col + ((c * k + ky) * k + kx) * (oh * ow);
        for (std::size_t yy = 0; yy < oh; ++yy) {
          const std::ptrdiff_t in_y =
              static_cast<std::ptrdiff_t>(yy * stride + ky) -
              static_cast<std::ptrdiff_t>(pad);
          if (in_y < 0 || in_y >= static_cast<std::ptrdiff_t>(h)) continue;
          float* xrow = xc + static_cast<std::size_t>(in_y) * w;
          const float* src = row + yy * ow;
          for (std::size_t xx = 0; xx < ow; ++xx) {
            const std::ptrdiff_t in_x =
                static_cast<std::ptrdiff_t>(xx * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            if (in_x < 0 || in_x >= static_cast<std::ptrdiff_t>(w)) continue;
            xrow[static_cast<std::size_t>(in_x)] += src[xx];
          }
        }
      }
    }
  }
}

}  // namespace

// --------------------------------------------------------------- Workspace

std::span<float> Workspace::take(std::size_t count) {
  for (Chunk& chunk : chunks_) {
    if (chunk.data.size() - chunk.used >= count) {
      const std::span<float> span(chunk.data.data() + chunk.used, count);
      chunk.used += count;
      return span;
    }
  }
  // Grow by a fresh chunk: existing chunks never resize, so spans handed
  // out earlier stay valid.
  constexpr std::size_t kMinChunkFloats = 4096;
  chunks_.emplace_back();
  Chunk& chunk = chunks_.back();
  chunk.data.resize(std::max(count, kMinChunkFloats));
  chunk.used = count;
  return {chunk.data.data(), count};
}

void Workspace::reset() noexcept {
  for (Chunk& chunk : chunks_) chunk.used = 0;
}

std::size_t Workspace::capacity() const noexcept {
  std::size_t total = 0;
  for (const Chunk& chunk : chunks_) total += chunk.data.size();
  return total;
}

// --------------------------------------------------------------- raw GEMMs

// Packing happens on the calling thread before rows are partitioned, so
// pool tasks only ever read the packed panels (and the caller blocks in
// parallel_for while they do, keeping the thread-local arena alive).

void gemm(const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, std::size_t m, std::size_t k,
          std::size_t n, Accumulate accumulate, ThreadPool* pool) {
  KernelTimer timer(gemm_time_histogram());
  const std::size_t flops = 2 * m * k * n;
  Workspace& arena = pack_workspace();
  arena.reset();
  const std::span<float> packed = arena.take(packed_b_floats(k, n));
  pack_b(b, ldb, k, n, packed.data());
  const float* bp = packed.data();
  if (accumulate == Accumulate::kAdd) {
    partition_rows(pool, m, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<true>(a, lda, 1, bp, c, ldc, k, r0, r1, n);
    });
  } else {
    partition_rows(pool, m, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<false>(a, lda, 1, bp, c, ldc, k, r0, r1, n);
    });
  }
  gemm_flop_counter().add(flops);
}

std::size_t gemm_packed_b_floats(std::size_t depth, std::size_t n) {
  return packed_b_floats(depth, n);
}

void gemm_pack_b(const float* b, std::size_t ldb, std::size_t depth,
                 std::size_t n, float* packed) {
  pack_b(b, ldb, depth, n, packed);
}

void gemm_prepacked_b(const float* a, std::size_t lda, const float* packed_b,
                      float* c, std::size_t ldc, std::size_t m, std::size_t k,
                      std::size_t n, Accumulate accumulate, ThreadPool* pool) {
  KernelTimer timer(gemm_time_histogram());
  const std::size_t flops = 2 * m * k * n;
  if (accumulate == Accumulate::kAdd) {
    partition_rows(pool, m, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<true>(a, lda, 1, packed_b, c, ldc, k, r0, r1, n);
    });
  } else {
    partition_rows(pool, m, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<false>(a, lda, 1, packed_b, c, ldc, k, r0, r1, n);
    });
  }
  gemm_flop_counter().add(flops);
}

void gemm_trans_a(const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float* c, std::size_t ldc, std::size_t m,
                  std::size_t k, std::size_t n, Accumulate accumulate,
                  ThreadPool* pool) {
  KernelTimer timer(gemm_time_histogram());
  const std::size_t flops = 2 * m * k * n;
  // Output rows are A's columns; transposing A up front turns the column
  // walk (lda floats per reduction step) into contiguous row reads. The
  // reduction over A/B rows stays ascending.
  Workspace& arena = pack_workspace();
  arena.reset();
  const std::span<float> at = arena.take(m * k);
  pack_a_transposed(a, lda, m, k, at.data());
  const std::span<float> packed = arena.take(packed_b_floats(m, n));
  pack_b(b, ldb, m, n, packed.data());
  const float* ap = at.data();
  const float* bp = packed.data();
  if (accumulate == Accumulate::kAdd) {
    partition_rows(pool, k, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<true>(ap, m, 1, bp, c, ldc, m, r0, r1, n);
    });
  } else {
    partition_rows(pool, k, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<false>(ap, m, 1, bp, c, ldc, m, r0, r1, n);
    });
  }
  gemm_flop_counter().add(flops);
}

void gemm_trans_b(const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float* c, std::size_t ldc, std::size_t m,
                  std::size_t k, std::size_t n, Accumulate accumulate,
                  ThreadPool* pool) {
  KernelTimer timer(gemm_time_histogram());
  const std::size_t flops = 2 * m * k * n;
  // C(m,n) = A(m,k) * B(n,k)^T: packing B's rows as depth-major panels
  // makes this the same broadcast-tile product as plain gemm, and each
  // output element is still one ascending-k dot-product chain.
  Workspace& arena = pack_workspace();
  arena.reset();
  const std::span<float> packed = arena.take(packed_b_floats(k, n));
  pack_b_transposed(b, ldb, k, n, packed.data());
  const float* bp = packed.data();
  if (accumulate == Accumulate::kAdd) {
    partition_rows(pool, m, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<true>(a, lda, 1, bp, c, ldc, k, r0, r1, n);
    });
  } else {
    partition_rows(pool, m, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<false>(a, lda, 1, bp, c, ldc, k, r0, r1, n);
    });
  }
  gemm_flop_counter().add(flops);
}

// ------------------------------------------------------ tensor entry points

void matmul(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool) {
  assert(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  assert(b.dim(0) == a.dim(1) && c.dim(0) == a.dim(0) && c.dim(1) == b.dim(1));
  gemm(a.data(), a.dim(1), b.data(), b.dim(1), c.data(), c.dim(1), a.dim(0),
       a.dim(1), b.dim(1), Accumulate::kOverwrite, pool);
}

void matmul_trans_a(const Tensor& a, const Tensor& b, Tensor& c,
                    ThreadPool* pool) {
  assert(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  assert(b.dim(0) == a.dim(0) && c.dim(0) == a.dim(1) && c.dim(1) == b.dim(1));
  gemm_trans_a(a.data(), a.dim(1), b.data(), b.dim(1), c.data(), c.dim(1),
               a.dim(0), a.dim(1), b.dim(1), Accumulate::kOverwrite, pool);
}

void matmul_trans_b(const Tensor& a, const Tensor& b, Tensor& c,
                    ThreadPool* pool) {
  assert(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  assert(b.dim(1) == a.dim(1) && c.dim(0) == a.dim(0) && c.dim(1) == b.dim(0));
  gemm_trans_b(a.data(), a.dim(1), b.data(), b.dim(1), c.data(), c.dim(1),
               a.dim(0), a.dim(1), b.dim(0), Accumulate::kOverwrite, pool);
}

void add_row_bias(Tensor& x, const Tensor& bias) {
  assert(x.rank() == 2 && bias.rank() == 1 && bias.dim(0) == x.dim(1));
  const std::size_t rows = x.dim(0), cols = x.dim(1);
  float* px = x.data();
  const float* pb = bias.data();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) px[r * cols + c] += pb[c];
  }
}

void softmax_rows(const Tensor& logits, Tensor& out) {
  assert(logits.rank() == 2);
  if (&out != &logits) out = logits;
  const std::size_t rows = out.dim(0), cols = out.dim(1);
  float* p = out.data();
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = p + r * cols;
    float max_v = -std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < cols; ++c) max_v = std::max(max_v, row[c]);
    float total = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_v);
      total += row[c];
    }
    const float inv = 1.0f / total;
    for (std::size_t c = 0; c < cols; ++c) row[c] *= inv;
  }
}

// ------------------------------------------------------------- convolution

void conv2d_forward(const Tensor& x, const Tensor& weights, const Tensor& bias,
                    const Conv2DShape& shape, Tensor& y, Workspace* workspace,
                    ThreadPool* pool) {
  assert(x.rank() == 4 && weights.rank() == 4 && y.rank() == 4);
  const std::size_t batch = x.dim(0);
  const std::size_t ic = shape.in_channels, oc = shape.out_channels;
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t k = shape.kernel, stride = shape.stride,
                    pad = shape.padding;
  const std::size_t oh = shape.out_extent(h), ow = shape.out_extent(w);
  assert(x.dim(1) == ic && weights.dim(0) == oc && weights.dim(1) == ic);
  assert(y.dim(0) == batch && y.dim(1) == oc && y.dim(2) == oh &&
         y.dim(3) == ow);

  KernelTimer timer(conv_time_histogram());
  const std::size_t ckk = ic * k * k;
  const std::size_t ohow = oh * ow;
  Workspace& arena = workspace != nullptr ? *workspace : thread_workspace();
  arena.reset();
  const std::span<float> col = arena.take(ckk * ohow);

  const float* pw = weights.data();  // (oc, ckk) row-major
  const float* pb = bias.data();
  float* py = y.data();
  for (std::size_t b = 0; b < batch; ++b) {
    im2col(x.data() + b * ic * h * w, ic, h, w, k, stride, pad, oh, ow,
           col.data());
    float* yb = py + b * oc * ohow;
    // Seed each output row with its bias, then accumulate the GEMM on top —
    // the same acc-starts-at-bias order as the naive loop.
    for (std::size_t o = 0; o < oc; ++o) std::fill_n(yb + o * ohow, ohow, pb[o]);
    gemm(pw, ckk, col.data(), ohow, yb, ohow, oc, ckk, ohow, Accumulate::kAdd,
         pool);
  }
  conv_flop_counter().add(2 * batch * oc * ckk * ohow);
}

std::size_t conv2d_packed_input_floats(const Conv2DShape& shape, std::size_t h,
                                       std::size_t w) {
  const std::size_t ckk = shape.in_channels * shape.kernel * shape.kernel;
  return packed_b_floats(ckk, shape.out_extent(h) * shape.out_extent(w));
}

void conv2d_pack_input(const Tensor& x, const Conv2DShape& shape,
                       std::span<float> packed, Workspace* workspace) {
  assert(x.rank() == 4 && x.dim(1) == shape.in_channels);
  const std::size_t batch = x.dim(0);
  const std::size_t ic = shape.in_channels;
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t k = shape.kernel, stride = shape.stride,
                    pad = shape.padding;
  const std::size_t oh = shape.out_extent(h), ow = shape.out_extent(w);
  const std::size_t ckk = ic * k * k;
  const std::size_t ohow = oh * ow;
  const std::size_t per_sample = packed_b_floats(ckk, ohow);
  assert(packed.size() >= batch * per_sample);
  Workspace& arena = workspace != nullptr ? *workspace : thread_workspace();
  arena.reset();
  const std::span<float> col = arena.take(ckk * ohow);
  for (std::size_t b = 0; b < batch; ++b) {
    im2col(x.data() + b * ic * h * w, ic, h, w, k, stride, pad, oh, ow,
           col.data());
    pack_b(col.data(), ohow, ckk, ohow, packed.data() + b * per_sample);
  }
}

void conv2d_forward_prepacked(std::span<const float> packed_x,
                              std::size_t batch, std::size_t h, std::size_t w,
                              const Tensor& weights, const Tensor& bias,
                              const Conv2DShape& shape, Tensor& y,
                              ThreadPool* pool) {
  assert(weights.rank() == 4 && y.rank() == 4);
  const std::size_t ic = shape.in_channels, oc = shape.out_channels;
  const std::size_t k = shape.kernel;
  const std::size_t oh = shape.out_extent(h), ow = shape.out_extent(w);
  assert(weights.dim(0) == oc && weights.dim(1) == ic);
  assert(y.dim(0) == batch && y.dim(1) == oc && y.dim(2) == oh &&
         y.dim(3) == ow);
  KernelTimer timer(conv_time_histogram());
  const std::size_t ckk = ic * k * k;
  const std::size_t ohow = oh * ow;
  const std::size_t per_sample = packed_b_floats(ckk, ohow);
  assert(packed_x.size() >= batch * per_sample);
  const float* pw = weights.data();  // (oc, ckk) row-major
  const float* pb = bias.data();
  float* py = y.data();
  for (std::size_t b = 0; b < batch; ++b) {
    float* yb = py + b * oc * ohow;
    for (std::size_t o = 0; o < oc; ++o) std::fill_n(yb + o * ohow, ohow, pb[o]);
    gemm_prepacked_b(pw, ckk, packed_x.data() + b * per_sample, yb, ohow, oc,
                     ckk, ohow, Accumulate::kAdd, pool);
  }
  conv_flop_counter().add(2 * batch * oc * ckk * ohow);
}

void conv2d_backward(const Tensor& x, const Tensor& weights,
                     const Conv2DShape& shape, const Tensor& dy, Tensor& dx,
                     Tensor& dw, Tensor& dbias, Workspace* workspace,
                     ThreadPool* pool) {
  const std::size_t batch = x.dim(0);
  const std::size_t ic = shape.in_channels, oc = shape.out_channels;
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t k = shape.kernel, stride = shape.stride,
                    pad = shape.padding;
  const std::size_t oh = shape.out_extent(h), ow = shape.out_extent(w);
  // A mismatched dy (or gradient buffers) would silently corrupt memory in
  // release builds; fail loudly under the debug-check presets instead.
  TANGLEFL_DCHECK_MSG(
      x.rank() == 4 && weights.rank() == 4 && dy.rank() == 4 &&
          dx.rank() == 4 && dw.rank() == 4,
      "conv2d_backward: all tensor arguments must be rank 4");
  TANGLEFL_DCHECK_MSG(x.dim(1) == ic, "conv2d_backward: x channel mismatch");
  TANGLEFL_DCHECK_MSG(
      weights.dim(0) == oc && weights.dim(1) == ic && weights.dim(2) == k &&
          weights.dim(3) == k,
      "conv2d_backward: weight shape mismatch");
  TANGLEFL_DCHECK_MSG(dy.dim(0) == batch && dy.dim(1) == oc &&
                          dy.dim(2) == oh && dy.dim(3) == ow,
                      "conv2d_backward: dy shape mismatch");
  TANGLEFL_DCHECK_MSG(dx.dim(0) == batch && dx.dim(1) == ic &&
                          dx.dim(2) == h && dx.dim(3) == w,
                      "conv2d_backward: dx shape mismatch");
  TANGLEFL_DCHECK_MSG(dw.dim(0) == oc && dw.dim(1) == ic && dw.dim(2) == k &&
                          dw.dim(3) == k,
                      "conv2d_backward: dw shape mismatch");
  TANGLEFL_DCHECK_MSG(dbias.size() == oc,
                      "conv2d_backward: dbias size mismatch");

  KernelTimer timer(conv_time_histogram());
  const std::size_t ckk = ic * k * k;
  const std::size_t ohow = oh * ow;
  Workspace& arena = workspace != nullptr ? *workspace : thread_workspace();
  arena.reset();
  const std::span<float> col = arena.take(ckk * ohow);
  const std::span<float> dcol = arena.take(ckk * ohow);

  dx.zero();
  const float* pdy = dy.data();
  float* pdb = dbias.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dyb = pdy + b * oc * ohow;
    // dbias: per-channel row sums in the naive (o, yy, xx) order.
    for (std::size_t o = 0; o < oc; ++o) {
      const float* row = dyb + o * ohow;
      float acc = pdb[o];
      for (std::size_t i = 0; i < ohow; ++i) acc += row[i];
      pdb[o] = acc;
    }
    im2col(x.data() + b * ic * h * w, ic, h, w, k, stride, pad, oh, ow,
           col.data());
    // dw(oc, ckk) += dy_b(oc, ohow) x col_b(ckk, ohow)^T
    gemm_trans_b(dyb, ohow, col.data(), ohow, dw.data(), ckk, oc, ohow, ckk,
                 Accumulate::kAdd, pool);
    // dcol(ckk, ohow) = W(oc, ckk)^T x dy_b(oc, ohow), then scatter back.
    gemm_trans_a(weights.data(), ckk, dyb, ohow, dcol.data(), ohow, oc, ckk,
                 ohow, Accumulate::kOverwrite, pool);
    col2im_add(dcol.data(), ic, h, w, k, stride, pad, oh, ow,
               dx.data() + b * ic * h * w);
  }
  conv_flop_counter().add(4 * batch * oc * ckk * ohow);
}

// ----------------------------------------------------------------- pooling

void maxpool2d_forward(const Tensor& x, std::size_t window, std::size_t stride,
                       Tensor& y, std::vector<std::size_t>& argmax) {
  assert(x.rank() == 4 && y.rank() == 4);
  const std::size_t batch = x.dim(0), ch = x.dim(1);
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t oh = (h - window) / stride + 1;
  const std::size_t ow = (w - window) / stride + 1;
  assert(y.dim(0) == batch && y.dim(1) == ch && y.dim(2) == oh && y.dim(3) == ow);
  argmax.assign(y.size(), 0);

  std::size_t out_index = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < ch; ++c) {
      for (std::size_t yy = 0; yy < oh; ++yy) {
        for (std::size_t xx = 0; xx < ow; ++xx) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_index = 0;
          for (std::size_t wy = 0; wy < window; ++wy) {
            for (std::size_t wx = 0; wx < window; ++wx) {
              const std::size_t iy = yy * stride + wy;
              const std::size_t ix = xx * stride + wx;
              const std::size_t flat = ((b * ch + c) * h + iy) * w + ix;
              const float v = x[flat];
              if (v > best) {
                best = v;
                best_index = flat;
              }
            }
          }
          y[out_index] = best;
          argmax[out_index] = best_index;
          ++out_index;
        }
      }
    }
  }
}

void maxpool2d_backward(const Tensor& dy, const std::vector<std::size_t>& argmax,
                        Tensor& dx) {
  assert(argmax.size() == dy.size());
  dx.zero();
  for (std::size_t i = 0; i < dy.size(); ++i) dx[argmax[i]] += dy[i];
}

}  // namespace tanglefl::nn::ops
