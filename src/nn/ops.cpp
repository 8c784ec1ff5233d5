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

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define TANGLEFL_GEMM_X86 1
#endif

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
// ops usage, the eval grid's input packs). Thread-local so concurrent node
// steps never share scratch.
Workspace& thread_workspace() {
  thread_local Workspace workspace;
  return workspace;
}

// Separate arena for GEMM operand packing. It must not be the conv fallback
// arena above: conv2d_backward builds its padded planes there and then
// calls gemm, which resets its pack arena per call — sharing one arena
// would clobber them mid-convolution.
Workspace& pack_workspace() {
  thread_local Workspace workspace;
  return workspace;
}

// ------------------------------------------------------- register microtiles
//
// A register tile is kRows output rows x kColTile output columns; the full
// reduction for the tile is carried in the `acc` array (which the compiler
// keeps in vector registers), so each output element is one ascending-index
// chain — the same order as the naive reference loops, just batched for
// locality and ILP.
//
// Two tiles share one body. The portable tile is 4x8 in two 128-bit vectors
// per row: its 8 accumulators plus the B strip and the broadcast lane fit
// the 16 XMM registers of baseline x86-64 SSE2. The AVX tile is 8x8 in one
// 256-bit vector per row, built with target("avx") and chosen at run time
// when CPUID reports AVX (detail::gemm_avx_supported). Every vector op is
// element-wise and -ffp-contract=off keeps multiply and add separate (the
// target is avx, not fma, for the same reason), so both tiles produce the
// reference's bits.
constexpr std::size_t kColTile = 8;

// The tile uses GCC/Clang vector extensions rather than relying on the
// auto-vectorizer: depending on inlining context and which strides constant-
// propagate, GCC's SLP pass sometimes re-vectorizes the accumulator across
// the depth axis (a horizontal-shuffle storm ~5x slower than the broadcast
// form). Explicit lane vectors pin the good shape.
using v4f [[gnu::may_alias]] = float __attribute__((vector_size(16), aligned(4)));
using v8f [[gnu::may_alias]] = float __attribute__((vector_size(32), aligned(4)));

// One tile over `depth` reduction steps. A is row-major with leading
// dimension lda; b is one packed panel (kColTile floats per depth step).
// Only `rows` (1..kRows) rows and `cols` (1..kColTile) columns are valid.
// The tile always runs its full shape: rows past the valid count re-read
// the last valid A row and columns past it read the panel's zero fill, and
// only valid elements are stored, so each output is still written once.
template <typename V, std::size_t kRows, bool kAccumulate>
[[gnu::always_inline]] inline void tile_body(const float* a, std::size_t lda,
                                             std::size_t rows, const float* b,
                                             float* c, std::size_t ldc,
                                             std::size_t depth,
                                             std::size_t cols) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(float);
  constexpr std::size_t kVecs = kColTile / kWidth;
  const float* arow[kRows];
  for (std::size_t r = 0; r < kRows; ++r) {
    arow[r] = a + std::min(r, rows - 1) * lda;
  }
  V acc[kRows][kVecs] = {};
  for (std::size_t p = 0; p < depth; ++p) {
    V bv[kVecs];
    for (std::size_t l = 0; l < kVecs; ++l) {
      bv[l] = *reinterpret_cast<const V*>(b + p * kColTile + l * kWidth);
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      const float av = arow[r][p];
      for (std::size_t l = 0; l < kVecs; ++l) acc[r][l] += av * bv[l];
    }
  }
  // acc is only ever indexed by constants (this loop unrolls fully), so it
  // stays in registers; a runtime index would spill it to the stack.
  if (cols == kColTile) {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < kRows; ++r) {
      if (r >= rows) break;
      for (std::size_t l = 0; l < kVecs; ++l) {
        V* cv = reinterpret_cast<V*>(c + r * ldc + l * kWidth);
        if constexpr (kAccumulate) {
          *cv += acc[r][l];
        } else {
          *cv = acc[r][l];
        }
      }
    }
    return;
  }
  float lanes[kRows][kColTile];
  std::memcpy(lanes, acc, sizeof(lanes));
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t j = 0; j < cols; ++j) {
      if constexpr (kAccumulate) {
        crow[j] += lanes[r][j];
      } else {
        crow[j] = lanes[r][j];
      }
    }
  }
}

// noinline is load-bearing for throughput, not a style choice: when the
// tile body is inlined into the surrounding blocked loops, GCC's SLP
// vectorizer re-associates the accumulator across the depth axis and emits
// a horizontal-shuffle storm that runs ~5x slower than the broadcast form
// it produces when the function is compiled in isolation.
template <bool kAccumulate>
[[gnu::noinline]] void tile_portable(const float* a, std::size_t lda,
                                     std::size_t rows, const float* b,
                                     float* c, std::size_t ldc,
                                     std::size_t depth, std::size_t cols) {
  tile_body<v4f, 4, kAccumulate>(a, lda, rows, b, c, ldc, depth, cols);
}

#if defined(TANGLEFL_GEMM_X86)
template <bool kAccumulate>
[[gnu::noinline, gnu::target("avx")]] void tile_avx(
    const float* a, std::size_t lda, std::size_t rows, const float* b,
    float* c, std::size_t ldc, std::size_t depth, std::size_t cols) {
  tile_body<v8f, 8, kAccumulate>(a, lda, rows, b, c, ldc, depth, cols);
}
#endif

// Output rows [r0, r1) of an (m, n) product with reduction length `depth`,
// B read from packed panels, in kRows-row tiles.
template <std::size_t kRows, auto kTile>
void tile_rows(const float* a, std::size_t lda, const float* packed_b,
               float* c, std::size_t ldc, std::size_t depth, std::size_t r0,
               std::size_t r1, std::size_t n) {
  const std::size_t panel_stride = depth * kColTile;
  for (std::size_t i = r0; i < r1; i += kRows) {
    const std::size_t rows = std::min(kRows, r1 - i);
    for (std::size_t j = 0; j < n; j += kColTile) {
      kTile(a + i * lda, lda, rows, packed_b + (j / kColTile) * panel_stride,
            c + i * ldc + j, ldc, depth, std::min(kColTile, n - j));
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
// Tail lanes of the last panel are zero-filled: the tiles read all
// kColTile lanes of every panel and store only the valid ones.
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

// Computes output rows [r0, r1) with the tile this CPU runs. Shared by all
// GEMM variants (trans-A packs A^T first so it looks like plain GEMM).
template <bool kAccumulate>
void product_rows(const float* a, std::size_t lda, const float* packed_b,
                  float* c, std::size_t ldc, std::size_t depth, std::size_t r0,
                  std::size_t r1, std::size_t n) {
#if defined(TANGLEFL_GEMM_X86)
  if (detail::gemm_avx_supported()) {
    tile_rows<8, tile_avx<kAccumulate>>(a, lda, packed_b, c, ldc, depth, r0,
                                        r1, n);
    return;
  }
#endif
  tile_rows<4, tile_portable<kAccumulate>>(a, lda, packed_b, c, ldc, depth, r0,
                                           r1, n);
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

// ------------------------------------------------------------ conv lowering
//
// A convolution reads each sample through a zero-padded copy (ic, hp, wp),
// hp = h + 2*pad. In that plane, reduction index p = (c, ky, kx) sits at
// patch offset c*hp*wp + ky*wp + kx and output position q = (yy, xx) at
// position offset yy*stride*wp + xx*stride, so GEMM operand element (p, q)
// is padded[patch + position] with no bounds test. The patch axis keeps the
// (c, ky, kx) order of the naive loops, so the GEMM accumulates
// weight-patch products in their sequence.
struct PaddedConv {
  std::size_t ic, k, stride, pad, h, w, wp, oh, ow;

  PaddedConv(const Conv2DShape& shape, std::size_t in_h, std::size_t in_w)
      : ic(shape.in_channels),
        k(shape.kernel),
        stride(shape.stride),
        pad(shape.padding),
        h(in_h),
        w(in_w),
        wp(in_w + 2 * shape.padding),
        oh(shape.out_extent(in_h)),
        ow(shape.out_extent(in_w)) {}

  std::size_t plane() const { return (h + 2 * pad) * wp; }
  std::size_t patches() const { return ic * k * k; }
  std::size_t positions() const { return oh * ow; }

  template <typename F>
  void for_each_patch(const F& f) const {
    for (std::size_t c = 0; c < ic; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx) f(c * plane() + ky * wp + kx);
      }
    }
  }
  template <typename F>
  void for_each_position(const F& f) const {
    for (std::size_t yy = 0; yy < oh; ++yy) {
      for (std::size_t xx = 0; xx < ow; ++xx) f(yy * stride * wp + xx * stride);
    }
  }

  // The sample x(ic, h, w) as a padded plane: x itself when there is no
  // padding, else a copy into `padded`, whose border the caller zeroed.
  const float* pad_sample(const float* x, float* padded) const {
    if (pad == 0) return x;
    for (std::size_t c = 0; c < ic; ++c) {
      for (std::size_t y = 0; y < h; ++y) {
        std::memcpy(padded + c * plane() + (y + pad) * wp + pad,
                    x + (c * h + y) * w, w * sizeof(float));
      }
    }
    return padded;
  }

  // Copies the interior of a padded plane out to dx(ic, h, w).
  void unpad(const float* padded, float* dx) const {
    for (std::size_t c = 0; c < ic; ++c) {
      for (std::size_t y = 0; y < h; ++y) {
        std::memcpy(dx + (c * h + y) * w,
                    padded + c * plane() + (y + pad) * wp + pad,
                    w * sizeof(float));
      }
    }
  }
};

// Writes an operand straight into the panel layout pack_b produces. Its n
// columns are the offsets for_each_lane enumerates and its depth steps the
// offsets for_each_depth enumerates, so element (d, j) is src[depth offset
// d + lane offset j]. Tail lanes get pack_b's zero fill. Pure data
// movement, so the GEMM sees the bytes that im2col + pack_b gave it.
template <typename ForEachLane, typename ForEachDepth>
void pack_gathered(const float* src, const ForEachLane& for_each_lane,
                   const ForEachDepth& for_each_depth, float* packed) {
  std::size_t lanes[kColTile];
  std::size_t cols = 0;
  const auto write_panel = [&] {
    // Offsets only ascend, so a full panel spanning kColTile - 1 is one
    // contiguous run (8 outputs of one stride-1 row): copy it whole.
    if (cols == kColTile && lanes[kColTile - 1] - lanes[0] == kColTile - 1) {
      for_each_depth([&](std::size_t offset) {
        std::memcpy(packed, src + offset + lanes[0], kColTile * sizeof(float));
        packed += kColTile;
      });
    } else if (cols == kColTile) {
      // The lane offsets stay in registers across the depth walk, and each
      // strip is stored as two 4-lane vectors: 1.6x the plain lane loop.
      const std::size_t l0 = lanes[0], l1 = lanes[1], l2 = lanes[2],
                        l3 = lanes[3], l4 = lanes[4], l5 = lanes[5],
                        l6 = lanes[6], l7 = lanes[7];
      for_each_depth([&](std::size_t offset) {
        const float* s = src + offset;
        *reinterpret_cast<v4f*>(packed) = v4f{s[l0], s[l1], s[l2], s[l3]};
        *reinterpret_cast<v4f*>(packed + 4) = v4f{s[l4], s[l5], s[l6], s[l7]};
        packed += kColTile;
      });
    } else {
      for_each_depth([&](std::size_t offset) {
        const float* s = src + offset;
        for (std::size_t l = 0; l < cols; ++l) packed[l] = s[lanes[l]];
        std::fill(packed + cols, packed + kColTile, 0.0f);
        packed += kColTile;
      });
    }
    cols = 0;
  };
  for_each_lane([&](std::size_t offset) {
    lanes[cols++] = offset;
    if (cols == kColTile) write_panel();
  });
  if (cols > 0) write_panel();
}

// B(ckk, ohow) of the forward product W(oc, ckk) x B.
void pack_conv_input(const float* padded, const PaddedConv& g, float* packed) {
  pack_gathered(
      padded, [&](const auto& f) { g.for_each_position(f); },
      [&](const auto& f) { g.for_each_patch(f); }, packed);
}

// B(ohow, ckk) of the weight-gradient product dy(oc, ohow) x B.
void pack_conv_input_transposed(const float* padded, const PaddedConv& g,
                                float* packed) {
  pack_gathered(
      padded, [&](const auto& f) { g.for_each_patch(f); },
      [&](const auto& f) { g.for_each_position(f); }, packed);
}

// Adds dcol(ckk, ohow) into a zeroed padded plane. Each element receives
// its contributions in ascending (c, ky, kx, yy, xx) order, the order of
// the naive scatter; those landing in the border are dropped with it.
void scatter_add_padded(const float* dcol, const PaddedConv& g,
                        float* padded) {
  const std::size_t ow = g.ow, step = g.stride, row = g.stride * g.wp;
  g.for_each_patch([&](std::size_t patch) {
    for (std::size_t yy = 0; yy < g.oh; ++yy) {
      float* dst = padded + patch + yy * row;
      if (step == 1) {  // contiguous, so the compiler vectorizes it
        for (std::size_t xx = 0; xx < ow; ++xx) dst[xx] += dcol[xx];
      } else {
        for (std::size_t xx = 0; xx < ow; ++xx) dst[xx * step] += dcol[xx];
      }
      dcol += ow;
    }
  });
}

// ------------------------------------------------------------------ pooling

// Max pooling over `planes` (h, w) planes, window folded in (wy, wx) order.
// kWindow > 0 fixes the window at compile time so its loops unroll; 0
// reads `window` at run time. Both run the same fold.
template <std::size_t kWindow>
void maxpool_planes(const float* x, std::size_t planes, std::size_t h,
                    std::size_t w, std::size_t window, std::size_t stride,
                    float* y, std::size_t* argmax) {
  if constexpr (kWindow > 0) window = kWindow;
  const std::size_t oh = (h - window) / stride + 1;
  const std::size_t ow = (w - window) / stride + 1;
  for (std::size_t p = 0; p < planes; ++p) {
    for (std::size_t yy = 0; yy < oh; ++yy) {
      const std::size_t row = (p * h + yy * stride) * w;
      for (std::size_t xx = 0; xx < ow; ++xx) {
        const std::size_t origin = row + xx * stride;
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_index = 0;
        for (std::size_t wy = 0; wy < window; ++wy) {
          for (std::size_t wx = 0; wx < window; ++wx) {
            const std::size_t flat = origin + wy * w + wx;
            const float v = x[flat];
            // Select form: no branch to mispredict, and the result of
            // `if (v > best)` — NaN never wins, the first of equal values
            // does, and a window with nothing above -inf keeps index 0.
            const bool take = v > best;
            best = take ? v : best;
            best_index = take ? flat : best_index;
          }
        }
        *y++ = best;
        if (argmax != nullptr) *argmax++ = best_index;
      }
    }
  }
}

}  // namespace

// ------------------------------------------------------------- tile choice

namespace detail {

void gemm_rows_portable(const float* a, std::size_t lda,
                        const float* packed_b, float* c, std::size_t ldc,
                        std::size_t depth, std::size_t r0, std::size_t r1,
                        std::size_t n, Accumulate accumulate) {
  (accumulate == Accumulate::kAdd ? tile_rows<4, tile_portable<true>>
                                   : tile_rows<4, tile_portable<false>>)(
      a, lda, packed_b, c, ldc, depth, r0, r1, n);
}

#if defined(TANGLEFL_GEMM_X86)

void gemm_rows_avx(const float* a, std::size_t lda, const float* packed_b,
                   float* c, std::size_t ldc, std::size_t depth,
                   std::size_t r0, std::size_t r1, std::size_t n,
                   Accumulate accumulate) {
  (accumulate == Accumulate::kAdd ? tile_rows<8, tile_avx<true>>
                                   : tile_rows<8, tile_avx<false>>)(
      a, lda, packed_b, c, ldc, depth, r0, r1, n);
}

// <cpuid.h> rather than __builtin_cpu_supports: the builtin links libgcc's
// CPU-model initializer into every binary, which moves unrelated code.
bool gemm_avx_supported() noexcept {
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    constexpr unsigned kOsxsave = 1u << 27, kAvx = 1u << 28;
    if ((ecx & (kOsxsave | kAvx)) != (kOsxsave | kAvx)) return false;
    // The OS must save XMM and YMM state (XCR0 bits 1 and 2).
    unsigned xcr0 = 0, xcr0_high = 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
    return (xcr0 & 0x6u) == 0x6u;
  }();
  return supported;
}

#else

void gemm_rows_avx(const float* a, std::size_t lda, const float* packed_b,
                   float* c, std::size_t ldc, std::size_t depth,
                   std::size_t r0, std::size_t r1, std::size_t n,
                   Accumulate accumulate) {
  gemm_rows_portable(a, lda, packed_b, c, ldc, depth, r0, r1, n, accumulate);
}

bool gemm_avx_supported() noexcept { return false; }

#endif

}  // namespace detail

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
//
// Each entry point makes one partition_rows call per Accumulate mode. Their
// exception cleanup is cold code, which the linker places ahead of every
// linking program's own text: folding the pair into one call moves the
// perfbench driver's calibration kernel (ROADMAP.md, "Pin the calibration
// kernel").

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
      product_rows<true>(a, lda, bp, c, ldc, k, r0, r1, n);
    });
  } else {
    partition_rows(pool, m, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<false>(a, lda, bp, c, ldc, k, r0, r1, n);
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
      product_rows<true>(a, lda, packed_b, c, ldc, k, r0, r1, n);
    });
  } else {
    partition_rows(pool, m, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<false>(a, lda, packed_b, c, ldc, k, r0, r1, n);
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
      product_rows<true>(ap, m, bp, c, ldc, m, r0, r1, n);
    });
  } else {
    partition_rows(pool, k, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<false>(ap, m, bp, c, ldc, m, r0, r1, n);
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
      product_rows<true>(a, lda, bp, c, ldc, k, r0, r1, n);
    });
  } else {
    partition_rows(pool, m, flops, [&](std::size_t r0, std::size_t r1) {
      product_rows<false>(a, lda, bp, c, ldc, k, r0, r1, n);
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

namespace {

// The forward product shared by conv2d_forward and
// conv2d_forward_prepacked: per sample, operand(b) yields the packed B(ckk,
// ohow) panels, each output row of y_b(oc, ohow) is seeded with its bias,
// and the GEMM accumulates on top — the acc-starts-at-bias order of the
// naive loop. noinline holds this file's cold exception-cleanup code at the
// size that keeps the perfbench driver's own code in place (ROADMAP.md,
// "Pin the calibration kernel"); inlined, it grows by 3 bytes and moves it.
template <typename Operand>
[[gnu::noinline]] void conv_forward_samples(const Operand& operand,
                                            std::size_t batch,
                                            const Tensor& weights,
                                            const Tensor& bias,
                                            std::size_t ckk, std::size_t ohow,
                                            Tensor& y, ThreadPool* pool) {
  KernelTimer timer(conv_time_histogram());
  const std::size_t oc = weights.dim(0);
  const float* pw = weights.data();  // (oc, ckk) row-major
  const float* pb = bias.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* packed = operand(b);
    float* yb = y.data() + b * oc * ohow;
    for (std::size_t o = 0; o < oc; ++o) std::fill_n(yb + o * ohow, ohow, pb[o]);
    gemm_prepacked_b(pw, ckk, packed, yb, ohow, oc, ckk, ohow,
                     Accumulate::kAdd, pool);
  }
  conv_flop_counter().add(2 * batch * oc * ckk * ohow);
}

}  // namespace

void conv2d_forward(const Tensor& x, const Tensor& weights, const Tensor& bias,
                    const Conv2DShape& shape, Tensor& y, Workspace* workspace,
                    ThreadPool* pool) {
  assert(x.rank() == 4 && weights.rank() == 4 && y.rank() == 4);
  const PaddedConv g(shape, x.dim(2), x.dim(3));
  assert(x.dim(1) == g.ic && weights.dim(0) == shape.out_channels &&
         weights.dim(1) == g.ic);
  assert(y.dim(0) == x.dim(0) && y.dim(1) == shape.out_channels &&
         y.dim(2) == g.oh && y.dim(3) == g.ow);
  Workspace& arena = workspace != nullptr ? *workspace : thread_workspace();
  arena.reset();
  const std::span<float> padded = arena.take(g.ic * g.plane());
  const std::span<float> packed =
      arena.take(packed_b_floats(g.patches(), g.positions()));
  std::fill(padded.begin(), padded.end(), 0.0f);
  conv_forward_samples(
      [&](std::size_t b) {
        pack_conv_input(
            g.pad_sample(x.data() + b * g.ic * g.h * g.w, padded.data()), g,
            packed.data());
        return packed.data();
      },
      x.dim(0), weights, bias, g.patches(), g.positions(), y, pool);
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
  const PaddedConv g(shape, x.dim(2), x.dim(3));
  const std::size_t per_sample = packed_b_floats(g.patches(), g.positions());
  assert(packed.size() >= batch * per_sample);
  Workspace& arena = workspace != nullptr ? *workspace : thread_workspace();
  arena.reset();
  const std::span<float> padded = arena.take(g.ic * g.plane());
  std::fill(padded.begin(), padded.end(), 0.0f);
  for (std::size_t b = 0; b < batch; ++b) {
    pack_conv_input(
        g.pad_sample(x.data() + b * g.ic * g.h * g.w, padded.data()), g,
        packed.data() + b * per_sample);
  }
}

void conv2d_forward_prepacked(std::span<const float> packed_x,
                              std::size_t batch, std::size_t h, std::size_t w,
                              const Tensor& weights, const Tensor& bias,
                              const Conv2DShape& shape, Tensor& y,
                              ThreadPool* pool) {
  assert(weights.rank() == 4 && y.rank() == 4);
  const std::size_t ckk = shape.in_channels * shape.kernel * shape.kernel;
  const std::size_t oh = shape.out_extent(h), ow = shape.out_extent(w);
  assert(weights.dim(0) == shape.out_channels &&
         weights.dim(1) == shape.in_channels);
  assert(y.dim(0) == batch && y.dim(1) == shape.out_channels &&
         y.dim(2) == oh && y.dim(3) == ow);
  const std::size_t per_sample = packed_b_floats(ckk, oh * ow);
  assert(packed_x.size() >= batch * per_sample);
  conv_forward_samples(
      [&](std::size_t b) { return packed_x.data() + b * per_sample; }, batch,
      weights, bias, ckk, oh * ow, y, pool);
}

void conv2d_backward(const Tensor& x, const Tensor& weights,
                     const Conv2DShape& shape, const Tensor& dy, Tensor* dx,
                     Tensor& dw, Tensor& dbias, Workspace* workspace,
                     ThreadPool* pool) {
  const std::size_t batch = x.dim(0);
  const std::size_t ic = shape.in_channels, oc = shape.out_channels;
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t k = shape.kernel;
  const PaddedConv g(shape, h, w);
  // A mismatched dy (or gradient buffers) would silently corrupt memory in
  // release builds; fail loudly under the debug-check presets instead.
  TANGLEFL_DCHECK_MSG(
      x.rank() == 4 && weights.rank() == 4 && dy.rank() == 4 &&
          (dx == nullptr || dx->rank() == 4) && dw.rank() == 4,
      "conv2d_backward: all tensor arguments must be rank 4");
  TANGLEFL_DCHECK_MSG(x.dim(1) == ic, "conv2d_backward: x channel mismatch");
  TANGLEFL_DCHECK_MSG(
      weights.dim(0) == oc && weights.dim(1) == ic && weights.dim(2) == k &&
          weights.dim(3) == k,
      "conv2d_backward: weight shape mismatch");
  TANGLEFL_DCHECK_MSG(dy.dim(0) == batch && dy.dim(1) == oc &&
                          dy.dim(2) == g.oh && dy.dim(3) == g.ow,
                      "conv2d_backward: dy shape mismatch");
  TANGLEFL_DCHECK_MSG(dx == nullptr ||
                          (dx->dim(0) == batch && dx->dim(1) == ic &&
                           dx->dim(2) == h && dx->dim(3) == w),
                      "conv2d_backward: dx shape mismatch");
  TANGLEFL_DCHECK_MSG(dw.dim(0) == oc && dw.dim(1) == ic && dw.dim(2) == k &&
                          dw.dim(3) == k,
                      "conv2d_backward: dw shape mismatch");
  TANGLEFL_DCHECK_MSG(dbias.size() == oc,
                      "conv2d_backward: dbias size mismatch");

  KernelTimer timer(conv_time_histogram());
  const std::size_t ckk = g.patches();
  const std::size_t ohow = g.positions();
  Workspace& arena = workspace != nullptr ? *workspace : thread_workspace();
  arena.reset();
  const std::span<float> padded = arena.take(ic * g.plane());
  const std::span<float> packed = arena.take(packed_b_floats(ohow, ckk));
  std::fill(padded.begin(), padded.end(), 0.0f);
  // The dx path: W^T(ckk, oc), transposed once for every sample, and the
  // dcol and padded-gradient buffers it scatters through.
  std::span<float> wt, dcol, dpadded;
  if (dx != nullptr) {
    wt = arena.take(ckk * oc);
    dcol = arena.take(ckk * ohow);
    dpadded = arena.take(ic * g.plane());
    pack_a_transposed(weights.data(), ckk, oc, ckk, wt.data());
  }

  const float* pdy = dy.data();
  float* pdb = dbias.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dyb = pdy + b * oc * ohow;
    // dbias: per-channel running sums in the naive (o, yy, xx) order. The
    // channels are independent chains, so walking them side by side keeps
    // each sum's order and hides the add latency.
    for (std::size_t i = 0; i < ohow; ++i) {
      for (std::size_t o = 0; o < oc; ++o) pdb[o] += dyb[o * ohow + i];
    }
    const float* xb = x.data() + b * ic * h * w;
    pack_conv_input_transposed(g.pad_sample(xb, padded.data()), g,
                               packed.data());
    // dw(oc, ckk) += dy_b(oc, ohow) x col_b(ckk, ohow)^T
    gemm_prepacked_b(dyb, ohow, packed.data(), dw.data(), ckk, oc, ohow, ckk,
                     Accumulate::kAdd, pool);
    if (dx == nullptr) continue;
    // dcol(ckk, ohow) = W^T(ckk, oc) x dy_b(oc, ohow), then scatter back.
    gemm(wt.data(), oc, dyb, ohow, dcol.data(), ohow, ckk, oc, ohow,
         Accumulate::kOverwrite, pool);
    std::fill(dpadded.begin(), dpadded.end(), 0.0f);
    scatter_add_padded(dcol.data(), g, dpadded.data());
    g.unpad(dpadded.data(), dx->data() + b * ic * h * w);
  }
  conv_flop_counter().add((dx != nullptr ? 4 : 2) * batch * oc * ckk * ohow);
}

// ----------------------------------------------------------------- pooling

void maxpool2d_forward(const Tensor& x, std::size_t window, std::size_t stride,
                       Tensor& y, std::vector<std::size_t>* argmax) {
  assert(x.rank() == 4 && y.rank() == 4);
  const std::size_t h = x.dim(2), w = x.dim(3);
  assert(y.dim(0) == x.dim(0) && y.dim(1) == x.dim(1) &&
         y.dim(2) == (h - window) / stride + 1 &&
         y.dim(3) == (w - window) / stride + 1);
  if (argmax != nullptr) argmax->resize(y.size());
  (window == 2 ? maxpool_planes<2> : maxpool_planes<0>)(
      x.data(), x.dim(0) * x.dim(1), h, w, window, stride, y.data(),
      argmax != nullptr ? argmax->data() : nullptr);
}

void maxpool2d_backward(const Tensor& dy, const std::vector<std::size_t>& argmax,
                        Tensor& dx) {
  assert(argmax.size() == dy.size());
  dx.zero();
  for (std::size_t i = 0; i < dy.size(); ++i) dx[argmax[i]] += dy[i];
}

}  // namespace tanglefl::nn::ops
