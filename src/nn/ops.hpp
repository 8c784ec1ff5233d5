// Structured tensor operations (GEMM variants, 2-D convolution, pooling,
// softmax). Layers compose these; tests and micro-benchmarks exercise them
// directly. All functions are pure with respect to their inputs and write
// into caller-provided outputs where performance matters.
//
// Determinism contract: every kernel accumulates each output element in
// strictly ascending reduction-index order, and the optional ThreadPool
// argument partitions work over *output rows only*. Bits are therefore
// identical for any pool size (including none) and match the serial result.
// The pre-optimization naive loops live on in ops::reference as the oracle
// that equivalence tests and baseline benchmarks call directly.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace tanglefl {
class ThreadPool;
}

namespace tanglefl::nn::ops {

/// Scratch arena for kernel workspaces (im2col buffers, fused-LSTM
/// pre-activations). A layer owns one Workspace and reuses it across
/// minibatches, so steady-state forward/backward passes allocate nothing.
/// Storage is chunked: growing the arena never moves previously returned
/// spans. Contents are unspecified after take(); reset() recycles all
/// spans without releasing memory.
class Workspace {
 public:
  /// Returns an uninitialized span of `count` floats, valid until reset().
  std::span<float> take(std::size_t count);

  /// Recycles every span handed out so far; capacity is retained.
  void reset() noexcept;

  /// Total floats currently reserved across all chunks.
  std::size_t capacity() const noexcept;

 private:
  struct Chunk {
    std::vector<float> data;
    std::size_t used = 0;
  };
  std::vector<Chunk> chunks_;
};

enum class Accumulate : bool { kOverwrite = false, kAdd = true };

/// Raw strided GEMM kernels (row-major, explicit leading dimensions) — the
/// single blocked kernel family everything else is built on. `pool`
/// partitions output rows into fixed-size chunks; accumulation order per
/// output element is ascending in the reduction index regardless of
/// blocking or partitioning, so results are bit-identical for any pool.
///
/// C(m,n) = A(m,k) * B(k,n)           [kOverwrite], or C += ... [kAdd]
void gemm(const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, std::size_t m, std::size_t k,
          std::size_t n, Accumulate accumulate = Accumulate::kOverwrite,
          ThreadPool* pool = nullptr);

/// Shared-operand packing: gemm() copies B into tile panels on every call,
/// which is pure waste when the same B multiplies many A operands (k
/// candidate models forwarding one activation batch). These entry points
/// split the pack off so callers pay it once and reuse it; the packed
/// layout is the same depth-major panel format gemm() builds internally,
/// so gemm_prepacked_b() is bit-identical to gemm() on the original B.

/// Panel floats needed to prepack a (depth x n) B operand (tail included).
std::size_t gemm_packed_b_floats(std::size_t depth, std::size_t n);

/// Packs row-major B(depth, n) into the panel layout gemm_prepacked_b
/// consumes. Pure data movement — bit-transparent.
void gemm_pack_b(const float* b, std::size_t ldb, std::size_t depth,
                 std::size_t n, float* packed);

/// gemm() reading a B operand already packed by gemm_pack_b. Bit-identical
/// to gemm(a, lda, b, ldb, ...) on the B that was packed.
void gemm_prepacked_b(const float* a, std::size_t lda, const float* packed_b,
                      float* c, std::size_t ldc, std::size_t m, std::size_t k,
                      std::size_t n,
                      Accumulate accumulate = Accumulate::kOverwrite,
                      ThreadPool* pool = nullptr);

/// C(k,n) = A(m,k)^T * B(m,n); reduction over m (ascending).
void gemm_trans_a(const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float* c, std::size_t ldc, std::size_t m,
                  std::size_t k, std::size_t n,
                  Accumulate accumulate = Accumulate::kOverwrite,
                  ThreadPool* pool = nullptr);

/// C(m,n) = A(m,k) * B(n,k)^T; row-dot-row, reduction over k (ascending).
void gemm_trans_b(const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float* c, std::size_t ldc, std::size_t m,
                  std::size_t k, std::size_t n,
                  Accumulate accumulate = Accumulate::kOverwrite,
                  ThreadPool* pool = nullptr);

/// C = A(m,k) * B(k,n). C must be preallocated to (m,n); it is overwritten.
void matmul(const Tensor& a, const Tensor& b, Tensor& c,
            ThreadPool* pool = nullptr);

/// C = A^T(m,k) * B(m,n) -> (k,n). Used for weight gradients.
void matmul_trans_a(const Tensor& a, const Tensor& b, Tensor& c,
                    ThreadPool* pool = nullptr);

/// C = A(m,k) * B^T(n,k) -> (m,n). Used for input gradients.
void matmul_trans_b(const Tensor& a, const Tensor& b, Tensor& c,
                    ThreadPool* pool = nullptr);

/// Adds bias(n) to every row of x(m,n) in place.
void add_row_bias(Tensor& x, const Tensor& bias);

/// Row-wise softmax of logits(m,n), written into out (may alias logits).
void softmax_rows(const Tensor& logits, Tensor& out);

struct Conv2DShape {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 0;   // square kernel
  std::size_t stride = 1;
  std::size_t padding = 0;  // symmetric zero padding

  /// Output spatial extent for an input extent `in`.
  std::size_t out_extent(std::size_t in) const noexcept {
    return (in + 2 * padding - kernel) / stride + 1;
  }
};

/// y(b, oc, oh, ow) = conv(x(b, ic, h, w), w(oc, ic, k, k)) + bias(oc).
/// y must be preallocated; it is overwritten. Implemented as per-sample
/// im2col (patch axis packed in (c, ky, kx) order) + GEMM. `workspace`
/// holds the column buffer; when null a per-thread arena is used. The
/// arena is reset() on entry, so callers must not hold spans across calls.
void conv2d_forward(const Tensor& x, const Tensor& weights, const Tensor& bias,
                    const Conv2DShape& shape, Tensor& y,
                    Workspace* workspace = nullptr, ThreadPool* pool = nullptr);

/// Multi-model sharing: when k candidate models forward the same activation
/// batch, the im2col + panel pack of the input is identical for every model.
/// These entry points let a caller pack each sample's column operand once
/// (the same bytes conv2d_forward builds internally) and replay the per-model
/// bias-seeded GEMMs against it, bit-identical to conv2d_forward.

/// Floats needed per input sample for conv2d_pack_input's packed operand.
std::size_t conv2d_packed_input_floats(const Conv2DShape& shape, std::size_t h,
                                       std::size_t w);

/// Packs every sample of x(b, ic, h, w): sample i's panels land at
/// packed[i * conv2d_packed_input_floats(...)]. `workspace` holds the
/// intermediate column buffer (per-thread arena when null) and is reset().
void conv2d_pack_input(const Tensor& x, const Conv2DShape& shape,
                       std::span<float> packed, Workspace* workspace = nullptr);

/// conv2d_forward reading the operand packed by conv2d_pack_input; h/w are
/// the spatial dims of the original input. Output bits match conv2d_forward.
void conv2d_forward_prepacked(std::span<const float> packed_x,
                              std::size_t batch, std::size_t h, std::size_t w,
                              const Tensor& weights, const Tensor& bias,
                              const Conv2DShape& shape, Tensor& y,
                              ThreadPool* pool = nullptr);

/// Backward pass: given dy, accumulates into dw / dbias (must be
/// pre-zeroed by the caller or accumulated deliberately) and overwrites dx.
/// GEMM-based: dw via dy x col^T, dx via W^T x dy + col2im.
void conv2d_backward(const Tensor& x, const Tensor& weights,
                     const Conv2DShape& shape, const Tensor& dy, Tensor& dx,
                     Tensor& dw, Tensor& dbias, Workspace* workspace = nullptr,
                     ThreadPool* pool = nullptr);

/// 2x2-style max pooling with a square window and equal stride. `argmax`
/// records the flat input index of each output maximum for the backward
/// pass; it must have y's element count.
void maxpool2d_forward(const Tensor& x, std::size_t window, std::size_t stride,
                       Tensor& y, std::vector<std::size_t>& argmax);

/// Scatters dy back through the recorded argmax indices; dx is overwritten.
void maxpool2d_backward(const Tensor& dy, const std::vector<std::size_t>& argmax,
                        Tensor& dx);

/// The pre-optimization scalar loops, kept verbatim as the equivalence and
/// benchmark baseline. Tests and micro-benchmarks call them directly as the
/// oracle; no runtime switch routes the entry points above through them.
namespace reference {

void matmul(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_trans_a(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_trans_b(const Tensor& a, const Tensor& b, Tensor& c);
void conv2d_forward(const Tensor& x, const Tensor& weights, const Tensor& bias,
                    const Conv2DShape& shape, Tensor& y);
void conv2d_backward(const Tensor& x, const Tensor& weights,
                     const Conv2DShape& shape, const Tensor& dy, Tensor& dx,
                     Tensor& dw, Tensor& dbias);

}  // namespace reference

}  // namespace tanglefl::nn::ops
