#include "nn/tensor.hpp"

#include <sstream>

namespace tanglefl::nn {

std::size_t Tensor::element_count(std::span<const std::size_t> shape) noexcept {
  std::size_t count = 1;
  for (const std::size_t d : shape) count *= d;
  return count;
}

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(element_count(shape_), 0.0f) {}

Tensor::Tensor(std::initializer_list<std::size_t> shape)
    : Tensor(std::vector<std::size_t>(shape)) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  assert(data_.size() == element_count(shape_));
}

void Tensor::reshape(std::vector<std::size_t> new_shape) {
  assert(element_count(new_shape) == data_.size());
  shape_ = std::move(new_shape);
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
  Tensor copy = *this;
  copy.reshape(std::move(new_shape));
  return copy;
}

void Tensor::fill(float value) noexcept {
  for (auto& v : data_) v = value;
}

void Tensor::add(const Tensor& other) {
  assert(shape_ == other.shape_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

std::size_t Tensor::argmax_row(std::size_t row) const {
  assert(rank() == 2 && row < shape_[0]);
  const std::size_t cols = shape_[1];
  const float* begin = data_.data() + row * cols;
  std::size_t best = 0;
  for (std::size_t c = 1; c < cols; ++c) {
    if (begin[c] > begin[best]) best = c;
  }
  return best;
}

bool Tensor::equals(const Tensor& other) const noexcept {
  return shape_ == other.shape_ && data_ == other.data_;
}

std::string Tensor::shape_string() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape_[i];
  }
  out << ']';
  return out.str();
}

}  // namespace tanglefl::nn
