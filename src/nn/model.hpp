// Sequential model container: owns a stack of layers, wires forward /
// backward through them, and exposes the flat parameter-vector view that
// the ledger layer (tangle transactions, FedAvg aggregation) operates on.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "support/rng.hpp"

namespace tanglefl::nn {

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a layer; returns a reference for chaining.
  Model& add(std::unique_ptr<Layer> layer);

  /// Constructs a layer in place.
  template <typename L, typename... Args>
  Model& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Randomly initializes every layer from independent child streams.
  void init(Rng& rng);

  /// Runs the full stack; `training` toggles dropout. Requires a layer.
  Tensor forward(const Tensor& input, bool training = false);

  /// Runs layers [first_layer, layer_count()) on `input`, which must be the
  /// bit-exact output of layer first_layer - 1; requires first_layer <
  /// layer_count(). Lets the eval engine's fused pass substitute a
  /// shared-operand computation of the first layer and resume the ordinary
  /// stack, producing the same bits as forward().
  Tensor forward_from(std::size_t first_layer, const Tensor& input,
                      bool training = false);

  /// Backpropagates d(loss)/d(output); parameter gradients accumulate into
  /// each layer's gradient tensors. The input gradient is not computed:
  /// nothing reads it, and for a first Conv2D it costs a GEMM and a scatter.
  void backward(const Tensor& grad_output);

  /// Clears all accumulated gradients.
  void zero_gradients();

  /// Total number of scalar parameters.
  std::size_t parameter_count() const;

  /// Copies all parameters into one flat vector (layer order, tensor order).
  [[nodiscard]] std::vector<float> get_parameters() const;

  /// Overwrites all parameters from a flat vector; the size must match
  /// parameter_count().
  void set_parameters(std::span<const float> flat);

  /// Copies all accumulated gradients into one flat vector.
  [[nodiscard]] std::vector<float> get_gradients() const;

  /// Mutable access to per-layer parameter/gradient tensors, in order.
  std::vector<Tensor*> parameter_tensors();
  std::vector<Tensor*> gradient_tensors();

  std::size_t layer_count() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  /// Sets (or clears, with nullptr) the intra-node kernel pool on every
  /// layer. Kernels partition output rows only, so results are bit-identical
  /// for any pool size. The pool must outlive subsequent forward/backward
  /// calls.
  void set_kernel_pool(ThreadPool* pool) noexcept;

  /// Deep copy (architecture + current parameters).
  [[nodiscard]] Model clone() const;

  /// One-line architecture summary, e.g. "Conv2D -> ReLU -> ... (12345 params)".
  std::string summary() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Builds a fresh, uninitialized model of some fixed architecture. Nodes
/// share a factory so every participant trains the same model family, as in
/// federated learning where the server fixes the architecture up front.
using ModelFactory = std::function<Model()>;

}  // namespace tanglefl::nn
