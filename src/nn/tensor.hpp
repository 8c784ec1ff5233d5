// Dense row-major float tensor. This is the numeric workhorse of the NN
// substrate: contiguous storage, shape metadata, and the elementwise /
// reduction helpers shared by layers and optimizers. Heavy structured ops
// (matmul, convolution) live in ops.hpp.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace tanglefl::nn {

class Tensor {
 public:
  /// Empty tensor (rank 0, no elements).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape);

  /// Tensor wrapping a copy of `values`; their count must match the shape.
  Tensor(std::vector<std::size_t> shape, std::vector<float> values);

  const std::vector<std::size_t>& shape() const noexcept { return shape_; }
  std::size_t rank() const noexcept { return shape_.size(); }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Extent of dimension `dim`.
  std::size_t dim(std::size_t d) const {
    assert(d < shape_.size());
    return shape_[d];
  }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::span<float> values() noexcept { return data_; }
  std::span<const float> values() const noexcept { return data_; }

  float& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  float operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  /// Multi-dimensional accessors for ranks 2-4 (row-major).
  float& at(std::size_t i, std::size_t j) {
    assert(rank() == 2);
    return data_[i * shape_[1] + j];
  }
  float at(std::size_t i, std::size_t j) const {
    assert(rank() == 2);
    return data_[i * shape_[1] + j];
  }
  float& at(std::size_t i, std::size_t j, std::size_t k) {
    assert(rank() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float at(std::size_t i, std::size_t j, std::size_t k) const {
    assert(rank() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float& at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) {
    assert(rank() == 4);
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }
  float at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) const {
    assert(rank() == 4);
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }

  /// Reinterprets the shape; the element count must be unchanged.
  void reshape(std::vector<std::size_t> new_shape);

  /// Returns a reshaped copy.
  [[nodiscard]] Tensor reshaped(std::vector<std::size_t> new_shape) const;

  void fill(float value) noexcept;
  void zero() noexcept { fill(0.0f); }

  /// this += other (shapes must match).
  void add(const Tensor& other);

  /// Index of the maximum element in row `row` of a rank-2 tensor.
  std::size_t argmax_row(std::size_t row) const;

  /// True if shapes and all elements are exactly equal.
  bool equals(const Tensor& other) const noexcept;

  /// "[2, 3]"-style shape rendering for diagnostics.
  std::string shape_string() const;

  /// Total element count implied by a shape.
  static std::size_t element_count(std::span<const std::size_t> shape) noexcept;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace tanglefl::nn
