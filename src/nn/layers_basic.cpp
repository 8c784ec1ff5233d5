#include <cassert>
#include <cmath>

#include "nn/layer.hpp"
#include "nn/ops.hpp"

namespace tanglefl::nn {

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weight_({in_features, out_features}),
      bias_({out_features}),
      dweight_({in_features, out_features}),
      dbias_({out_features}) {}

void Linear::init(Rng& rng) {
  // He initialization; suits the ReLU networks we build.
  const float scale =
      std::sqrt(2.0f / static_cast<float>(in_features_));
  for (auto& w : weight_.values()) {
    w = static_cast<float>(rng.normal()) * scale;
  }
  bias_.zero();
}

Tensor Linear::forward(const Tensor& input, bool training) {
  (void)training;
  assert(input.rank() == 2 && input.dim(1) == in_features_);
  cached_input_ = input;
  Tensor output({input.dim(0), out_features_});
  ops::matmul(input, weight_, output, kernel_pool_);
  ops::add_row_bias(output, bias_);
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  assert(grad_output.rank() == 2 && grad_output.dim(1) == out_features_);
  const std::size_t batch = grad_output.dim(0);
  // Accumulate straight into dweight_ — no per-batch temporary.
  ops::gemm_trans_a(cached_input_.data(), in_features_, grad_output.data(),
                    out_features_, dweight_.data(), out_features_, batch,
                    in_features_, out_features_, ops::Accumulate::kAdd,
                    kernel_pool_);
  const float* pg = grad_output.data();
  float* pdb = dbias_.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = pg + b * out_features_;
    for (std::size_t o = 0; o < out_features_; ++o) pdb[o] += row[o];
  }
  Tensor dx({batch, in_features_});
  ops::matmul_trans_b(grad_output, weight_, dx, kernel_pool_);
  return dx;
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(in_features_, out_features_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

// ------------------------------------------------------------------ ReLU

Tensor ReLU::forward(const Tensor& input, bool training) {
  (void)training;
  cached_input_ = input;
  Tensor output = input;
  for (auto& v : output.values()) v = v > 0.0f ? v : 0.0f;
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  assert(grad_output.size() == cached_input_.size());
  Tensor dx = grad_output;
  const auto in = cached_input_.values();
  auto out = dx.values();
  // Select form, not `if (in <= 0) out = 0`: the branch mispredicts on
  // about half of a conv activation. Same bits — a NaN input passes the
  // gradient, -0 and +0 zero it.
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = in[i] <= 0.0f ? 0.0f : out[i];
  }
  return dx;
}

// --------------------------------------------------------------- Dropout

Dropout::Dropout(double drop_probability)
    : drop_probability_(drop_probability) {
  assert(drop_probability_ >= 0.0 && drop_probability_ < 1.0);
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || drop_probability_ == 0.0) {
    mask_.clear();
    return input;
  }
  Tensor output = input;
  mask_.resize(input.size());
  const float keep = 1.0f - static_cast<float>(drop_probability_);
  const float inv_keep = 1.0f / keep;
  auto values = output.values();
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Inverted dropout: surviving activations are rescaled so evaluation
    // needs no correction factor.
    mask_[i] = rng_.bernoulli(drop_probability_) ? 0.0f : inv_keep;
    values[i] *= mask_[i];
  }
  return output;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;
  assert(mask_.size() == grad_output.size());
  Tensor dx = grad_output;
  auto values = dx.values();
  for (std::size_t i = 0; i < values.size(); ++i) values[i] *= mask_[i];
  return dx;
}

std::unique_ptr<Layer> Dropout::clone() const {
  auto copy = std::make_unique<Dropout>(drop_probability_);
  copy->rng_ = rng_;
  return copy;
}

// --------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& input, bool training) {
  (void)training;
  assert(input.rank() >= 2);
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  return input.reshaped({batch, input.size() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(input_shape_);
}

// ---------------------------------------------------------- LastTimestep

Tensor LastTimestep::forward(const Tensor& input, bool training) {
  (void)training;
  assert(input.rank() == 3);
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0), seq = input.dim(1), dim = input.dim(2);
  Tensor output({batch, dim});
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t d = 0; d < dim; ++d) {
      output.at(b, d) = input.at(b, seq - 1, d);
    }
  }
  return output;
}

Tensor LastTimestep::backward(const Tensor& grad_output) {
  Tensor dx(input_shape_);
  const std::size_t batch = input_shape_[0], seq = input_shape_[1],
                    dim = input_shape_[2];
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t d = 0; d < dim; ++d) {
      dx.at(b, seq - 1, d) = grad_output.at(b, d);
    }
  }
  return dx;
}

}  // namespace tanglefl::nn
