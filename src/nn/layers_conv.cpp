#include <cassert>
#include <cmath>

#include "nn/layer.hpp"
#include "nn/ops.hpp"

namespace tanglefl::nn {

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      dweight_({out_channels, in_channels, kernel, kernel}),
      dbias_({out_channels}) {}

ops::Conv2DShape Conv2D::conv_shape() {
  return {in_channels_, out_channels_, kernel_, stride_, padding_};
}

void Conv2D::init(Rng& rng) {
  const float fan_in =
      static_cast<float>(in_channels_ * kernel_ * kernel_);
  const float scale = std::sqrt(2.0f / fan_in);
  for (auto& w : weight_.values()) {
    w = static_cast<float>(rng.normal()) * scale;
  }
  bias_.zero();
}

Tensor Conv2D::forward(const Tensor& input, bool training) {
  assert(input.rank() == 4 && input.dim(1) == in_channels_);
  if (training) cached_input_ = input;
  const auto shape = conv_shape();
  Tensor output({input.dim(0), out_channels_, shape.out_extent(input.dim(2)),
                 shape.out_extent(input.dim(3))});
  ops::conv2d_forward(input, weight_, bias_, shape, output, &workspace_,
                      kernel_pool_);
  return output;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  Tensor dx(cached_input_.shape());
  ops::conv2d_backward(cached_input_, weight_, conv_shape(), grad_output, &dx,
                       dweight_, dbias_, &workspace_, kernel_pool_);
  return dx;
}

void Conv2D::backward_parameters(const Tensor& grad_output) {
  ops::conv2d_backward(cached_input_, weight_, conv_shape(), grad_output,
                       nullptr, dweight_, dbias_, &workspace_, kernel_pool_);
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto copy = std::make_unique<Conv2D>(in_channels_, out_channels_, kernel_,
                                       stride_, padding_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

// ------------------------------------------------------------- MaxPool2D

MaxPool2D::MaxPool2D(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride == 0 ? window : stride) {}

Tensor MaxPool2D::forward(const Tensor& input, bool training) {
  (void)training;
  assert(input.rank() == 4);
  input_shape_ = input.shape();
  const std::size_t oh = (input.dim(2) - window_) / stride_ + 1;
  const std::size_t ow = (input.dim(3) - window_) / stride_ + 1;
  Tensor output({input.dim(0), input.dim(1), oh, ow});
  ops::maxpool2d_forward(input, window_, stride_, output, argmax_);
  return output;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  Tensor dx(input_shape_);
  ops::maxpool2d_backward(grad_output, argmax_, dx);
  return dx;
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>(window_, stride_);
}

}  // namespace tanglefl::nn
