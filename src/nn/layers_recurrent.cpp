#include <cassert>
#include <cmath>
#include <cstring>

#include "nn/layer.hpp"
#include "nn/ops.hpp"

namespace tanglefl::nn {
namespace {

inline float sigmoid(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }

/// Copies timestep `t` of a (batch, seq, dim) tensor into (batch, dim).
/// Only used by the ops::reference LSTM path; the fused path reads strided
/// views instead.
Tensor slice_timestep(const Tensor& x, std::size_t t) {
  const std::size_t batch = x.dim(0), dim = x.dim(2);
  Tensor out({batch, dim});
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t d = 0; d < dim; ++d) out.at(b, d) = x.at(b, t, d);
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- Embedding

Embedding::Embedding(std::size_t vocab_size, std::size_t dim)
    : vocab_size_(vocab_size),
      dim_(dim),
      weight_({vocab_size, dim}),
      dweight_({vocab_size, dim}) {}

void Embedding::init(Rng& rng) {
  for (auto& w : weight_.values()) {
    w = static_cast<float>(rng.normal()) * 0.1f;
  }
}

Tensor Embedding::forward(const Tensor& input, bool training) {
  (void)training;
  assert(input.rank() == 2);
  cached_input_ = input;
  const std::size_t batch = input.dim(0), seq = input.dim(1);
  Tensor output({batch, seq, dim_});
  const float* ids = input.data();
  const float* pw = weight_.data();
  float* out = output.data();
  for (std::size_t i = 0; i < batch * seq; ++i) {
    const auto token = static_cast<std::size_t>(ids[i]);
    assert(token < vocab_size_);
    std::memcpy(out + i * dim_, pw + token * dim_, dim_ * sizeof(float));
  }
  return output;
}

Tensor Embedding::backward(const Tensor& grad_output) {
  const std::size_t batch = cached_input_.dim(0), seq = cached_input_.dim(1);
  const float* ids = cached_input_.data();
  const float* grad = grad_output.data();
  float* pdw = dweight_.data();
  for (std::size_t i = 0; i < batch * seq; ++i) {
    const auto token = static_cast<std::size_t>(ids[i]);
    float* dst = pdw + token * dim_;
    const float* src = grad + i * dim_;
    for (std::size_t d = 0; d < dim_; ++d) dst[d] += src[d];
  }
  // Token ids are not differentiable; propagate zeros of the input shape.
  return Tensor(cached_input_.shape());
}

std::unique_ptr<Layer> Embedding::clone() const {
  auto copy = std::make_unique<Embedding>(vocab_size_, dim_);
  copy->weight_ = weight_;
  return copy;
}

// ------------------------------------------------------------------ LSTM

LSTM::LSTM(std::size_t input_dim, std::size_t hidden_dim)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_input_({input_dim, 4 * hidden_dim}),
      w_hidden_({hidden_dim, 4 * hidden_dim}),
      bias_({4 * hidden_dim}),
      dw_input_({input_dim, 4 * hidden_dim}),
      dw_hidden_({hidden_dim, 4 * hidden_dim}),
      dbias_({4 * hidden_dim}) {}

void LSTM::init(Rng& rng) {
  const float scale_x = std::sqrt(1.0f / static_cast<float>(input_dim_));
  const float scale_h = std::sqrt(1.0f / static_cast<float>(hidden_dim_));
  for (auto& w : w_input_.values()) {
    w = static_cast<float>(rng.normal()) * scale_x;
  }
  for (auto& w : w_hidden_.values()) {
    w = static_cast<float>(rng.normal()) * scale_h;
  }
  bias_.zero();
  // Forget-gate bias of 1 is the standard trick for stable early training.
  for (std::size_t h = 0; h < hidden_dim_; ++h) {
    bias_[hidden_dim_ + h] = 1.0f;
  }
}

void LSTM::ensure_cache_shapes(std::size_t batch, std::size_t seq) {
  const std::size_t h4 = 4 * hidden_dim_;
  if (gates_.rank() != 3 || gates_.dim(0) != batch || gates_.dim(1) != seq ||
      gates_.dim(2) != h4) {
    gates_ = Tensor({batch, seq, h4});
    hidden_ = Tensor({batch, seq, hidden_dim_});
    cell_ = Tensor({batch, seq, hidden_dim_});
  }
}

Tensor LSTM::forward(const Tensor& input, bool training) {
  (void)training;
  assert(input.rank() == 3 && input.dim(2) == input_dim_);
  cached_input_ = input;
  const std::size_t batch = input.dim(0), seq = input.dim(1);
  ensure_cache_shapes(batch, seq);

  const std::size_t h4 = 4 * hidden_dim_;
  const std::size_t rows = batch * seq;
  workspace_.reset();
  const std::span<float> pre_x = workspace_.take(rows * h4);
  const std::span<float> pre_h = workspace_.take(batch * h4);

  // Step fusion part 1: the input projection has no timestep recurrence, so
  // hoist it out of the loop as one (batch*seq, input_dim) x (input_dim, 4H)
  // GEMM over the whole sequence.
  ops::gemm(input.data(), input_dim_, w_input_.data(), h4, pre_x.data(), h4,
            rows, input_dim_, h4, ops::Accumulate::kOverwrite, kernel_pool_);

  const float* pb = bias_.data();
  for (std::size_t t = 0; t < seq; ++t) {
    if (t == 0) {
      std::fill(pre_h.begin(), pre_h.end(), 0.0f);
    } else {
      // h_{t-1} is a strided view into the hidden cache (row stride
      // seq*hidden), so no per-timestep slice copy is needed.
      ops::gemm(hidden_.data() + (t - 1) * hidden_dim_, seq * hidden_dim_,
                w_hidden_.data(), h4, pre_h.data(), h4, batch, hidden_dim_,
                h4, ops::Accumulate::kOverwrite, kernel_pool_);
    }
    // Step fusion part 2: gate nonlinearities and the cell update in one
    // pass per (b, t), writing directly into the sequence caches.
    for (std::size_t b = 0; b < batch; ++b) {
      const float* px = pre_x.data() + (b * seq + t) * h4;
      const float* ph = pre_h.data() + b * h4;
      float* g = gates_.data() + (b * seq + t) * h4;
      for (std::size_t j = 0; j < h4; ++j) {
        const float pre = px[j] + ph[j] + pb[j];
        // Gate layout: [input | forget | cell | output].
        g[j] = (j / hidden_dim_ == 2) ? std::tanh(pre) : sigmoid(pre);
      }
      const float* c_prev =
          t == 0 ? nullptr : cell_.data() + (b * seq + t - 1) * hidden_dim_;
      float* c_t = cell_.data() + (b * seq + t) * hidden_dim_;
      float* h_t = hidden_.data() + (b * seq + t) * hidden_dim_;
      for (std::size_t h = 0; h < hidden_dim_; ++h) {
        const float i_g = g[h];
        const float f_g = g[hidden_dim_ + h];
        const float c_g = g[2 * hidden_dim_ + h];
        const float o_g = g[3 * hidden_dim_ + h];
        const float c_new =
            f_g * (c_prev != nullptr ? c_prev[h] : 0.0f) + i_g * c_g;
        c_t[h] = c_new;
        h_t[h] = o_g * std::tanh(c_new);
      }
    }
  }
  // The hidden cache is the output, in the output's exact layout.
  return hidden_;
}

Tensor LSTM::backward(const Tensor& grad_output) {
  const std::size_t batch = cached_input_.dim(0), seq = cached_input_.dim(1);
  const std::size_t h4 = 4 * hidden_dim_;
  assert(grad_output.rank() == 3 && grad_output.dim(1) == seq &&
         grad_output.dim(2) == hidden_dim_);
  const std::size_t rows = batch * seq;

  workspace_.reset();  // forward's spans are dead by now
  const std::span<float> dgates = workspace_.take(rows * h4);
  std::span<float> dh_next = workspace_.take(batch * hidden_dim_);
  std::span<float> dh_prev = workspace_.take(batch * hidden_dim_);
  const std::span<float> dc_next = workspace_.take(batch * hidden_dim_);
  std::fill(dh_next.begin(), dh_next.end(), 0.0f);
  std::fill(dc_next.begin(), dc_next.end(), 0.0f);

  float* pdb = dbias_.data();
  for (std::size_t tt = seq; tt > 0; --tt) {
    const std::size_t t = tt - 1;
    for (std::size_t b = 0; b < batch; ++b) {
      const float* g = gates_.data() + (b * seq + t) * h4;
      const float* c_t = cell_.data() + (b * seq + t) * hidden_dim_;
      const float* c_prev =
          t == 0 ? nullptr : cell_.data() + (b * seq + t - 1) * hidden_dim_;
      const float* go = grad_output.data() + (b * seq + t) * hidden_dim_;
      float* dg = dgates.data() + (b * seq + t) * h4;
      float* dhn = dh_next.data() + b * hidden_dim_;
      float* dcn = dc_next.data() + b * hidden_dim_;
      for (std::size_t h = 0; h < hidden_dim_; ++h) {
        const float i_g = g[h];
        const float f_g = g[hidden_dim_ + h];
        const float c_g = g[2 * hidden_dim_ + h];
        const float o_g = g[3 * hidden_dim_ + h];
        const float tanh_c = std::tanh(c_t[h]);

        const float dh = go[h] + dhn[h];
        const float dc = dcn[h] + dh * o_g * (1.0f - tanh_c * tanh_c);

        // Derivatives through the gate nonlinearities.
        dg[h] = dc * c_g * i_g * (1.0f - i_g);
        dg[hidden_dim_ + h] =
            dc * (c_prev != nullptr ? c_prev[h] : 0.0f) * f_g * (1.0f - f_g);
        dg[2 * hidden_dim_ + h] = dc * i_g * (1.0f - c_g * c_g);
        dg[3 * hidden_dim_ + h] = dh * tanh_c * o_g * (1.0f - o_g);

        dcn[h] = dc * f_g;
      }
    }
    for (std::size_t b = 0; b < batch; ++b) {
      const float* dg = dgates.data() + (b * seq + t) * h4;
      for (std::size_t j = 0; j < h4; ++j) pdb[j] += dg[j];
    }
    // dh_{t-1} = dgates_t x w_hidden_^T over strided timestep views.
    ops::gemm_trans_b(dgates.data() + t * h4, seq * h4, w_hidden_.data(), h4,
                      dh_prev.data(), hidden_dim_, batch, h4, hidden_dim_,
                      ops::Accumulate::kOverwrite, kernel_pool_);
    std::swap(dh_next, dh_prev);
  }

  // Step fusion for the weight gradients: instead of one small GEMM pair
  // per timestep, accumulate over the whole sequence at once.
  ops::gemm_trans_a(cached_input_.data(), input_dim_, dgates.data(), h4,
                    dw_input_.data(), h4, rows, input_dim_, h4,
                    ops::Accumulate::kAdd, kernel_pool_);
  // h_{t-1} matrix: per sample, a zero row then the hidden rows shifted by
  // one timestep (a single contiguous copy per sample).
  const std::span<float> h_prev_all = workspace_.take(rows * hidden_dim_);
  for (std::size_t b = 0; b < batch; ++b) {
    float* dst = h_prev_all.data() + b * seq * hidden_dim_;
    std::fill_n(dst, hidden_dim_, 0.0f);
    if (seq > 1) {
      std::memcpy(dst + hidden_dim_, hidden_.data() + b * seq * hidden_dim_,
                  (seq - 1) * hidden_dim_ * sizeof(float));
    }
  }
  ops::gemm_trans_a(h_prev_all.data(), hidden_dim_, dgates.data(), h4,
                    dw_hidden_.data(), h4, rows, hidden_dim_, h4,
                    ops::Accumulate::kAdd, kernel_pool_);
  Tensor dx(cached_input_.shape());
  ops::gemm_trans_b(dgates.data(), h4, w_input_.data(), h4, dx.data(),
                    input_dim_, rows, h4, input_dim_,
                    ops::Accumulate::kOverwrite, kernel_pool_);
  return dx;
}

// Legacy per-timestep oracle (see layer.hpp): the pre-fusion numerics on
// the naive ops::reference GEMMs.

Tensor LSTM::forward_reference(const Tensor& input) {
  assert(input.rank() == 3 && input.dim(2) == input_dim_);
  cached_input_ = input;
  const std::size_t batch = input.dim(0), seq = input.dim(1);
  ensure_cache_shapes(batch, seq);
  const std::size_t h4 = 4 * hidden_dim_;

  Tensor h_prev({batch, hidden_dim_});
  Tensor c_prev({batch, hidden_dim_});
  Tensor pre_x({batch, h4});
  Tensor pre_h({batch, h4});
  Tensor output({batch, seq, hidden_dim_});

  for (std::size_t t = 0; t < seq; ++t) {
    const Tensor x_t = slice_timestep(input, t);
    ops::reference::matmul(x_t, w_input_, pre_x);
    ops::reference::matmul(h_prev, w_hidden_, pre_h);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t j = 0; j < h4; ++j) {
        const float pre = pre_x.at(b, j) + pre_h.at(b, j) + bias_[j];
        // Gate layout: [input | forget | cell | output].
        gates_.at(b, t, j) =
            (j / hidden_dim_ == 2) ? std::tanh(pre) : sigmoid(pre);
      }
      for (std::size_t h = 0; h < hidden_dim_; ++h) {
        const float i_g = gates_.at(b, t, h);
        const float f_g = gates_.at(b, t, hidden_dim_ + h);
        const float c_g = gates_.at(b, t, 2 * hidden_dim_ + h);
        const float o_g = gates_.at(b, t, 3 * hidden_dim_ + h);
        const float c_new = f_g * c_prev.at(b, h) + i_g * c_g;
        cell_.at(b, t, h) = c_new;
        const float h_new = o_g * std::tanh(c_new);
        hidden_.at(b, t, h) = h_new;
        output.at(b, t, h) = h_new;
      }
    }
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t h = 0; h < hidden_dim_; ++h) {
        h_prev.at(b, h) = hidden_.at(b, t, h);
        c_prev.at(b, h) = cell_.at(b, t, h);
      }
    }
  }
  return output;
}

Tensor LSTM::backward_reference(const Tensor& grad_output) {
  const std::size_t batch = cached_input_.dim(0), seq = cached_input_.dim(1);
  const std::size_t h4 = 4 * hidden_dim_;
  assert(grad_output.rank() == 3 && grad_output.dim(1) == seq &&
         grad_output.dim(2) == hidden_dim_);

  Tensor dx(cached_input_.shape());
  Tensor dh_next({batch, hidden_dim_});
  Tensor dc_next({batch, hidden_dim_});
  Tensor dgates({batch, h4});
  Tensor dx_t({batch, input_dim_});
  Tensor dh_prev({batch, hidden_dim_});
  Tensor dwx({input_dim_, h4});
  Tensor dwh({hidden_dim_, h4});
  Tensor h_prev({batch, hidden_dim_});

  for (std::size_t tt = seq; tt > 0; --tt) {
    const std::size_t t = tt - 1;
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t h = 0; h < hidden_dim_; ++h) {
        const float i_g = gates_.at(b, t, h);
        const float f_g = gates_.at(b, t, hidden_dim_ + h);
        const float c_g = gates_.at(b, t, 2 * hidden_dim_ + h);
        const float o_g = gates_.at(b, t, 3 * hidden_dim_ + h);
        const float tanh_c = std::tanh(cell_.at(b, t, h));
        const float c_prev_v = t == 0 ? 0.0f : cell_.at(b, t - 1, h);

        const float dh = grad_output.at(b, t, h) + dh_next.at(b, h);
        const float dc =
            dc_next.at(b, h) + dh * o_g * (1.0f - tanh_c * tanh_c);

        // Derivatives through the gate nonlinearities.
        dgates.at(b, h) = dc * c_g * i_g * (1.0f - i_g);
        dgates.at(b, hidden_dim_ + h) =
            dc * c_prev_v * f_g * (1.0f - f_g);
        dgates.at(b, 2 * hidden_dim_ + h) = dc * i_g * (1.0f - c_g * c_g);
        dgates.at(b, 3 * hidden_dim_ + h) =
            dh * tanh_c * o_g * (1.0f - o_g);

        dc_next.at(b, h) = dc * f_g;
        h_prev.at(b, h) = t == 0 ? 0.0f : hidden_.at(b, t - 1, h);
      }
    }

    const Tensor x_t = slice_timestep(cached_input_, t);
    ops::reference::matmul_trans_a(x_t, dgates, dwx);
    dw_input_.add(dwx);
    ops::reference::matmul_trans_a(h_prev, dgates, dwh);
    dw_hidden_.add(dwh);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t j = 0; j < h4; ++j) dbias_[j] += dgates.at(b, j);
    }
    ops::reference::matmul_trans_b(dgates, w_input_, dx_t);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t d = 0; d < input_dim_; ++d) {
        dx.at(b, t, d) = dx_t.at(b, d);
      }
    }
    ops::reference::matmul_trans_b(dgates, w_hidden_, dh_prev);
    dh_next = dh_prev;
  }
  return dx;
}

std::unique_ptr<Layer> LSTM::clone() const {
  auto copy = std::make_unique<LSTM>(input_dim_, hidden_dim_);
  copy->w_input_ = w_input_;
  copy->w_hidden_ = w_hidden_;
  copy->bias_ = bias_;
  return copy;
}

}  // namespace tanglefl::nn
