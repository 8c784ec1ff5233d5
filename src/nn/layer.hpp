// Layer abstraction and the concrete layers used by the paper's two model
// families (CNN for the image task, embedding + stacked LSTM for the
// character-LM task). Layers cache whatever their backward pass needs, so
// a training step is forward(x, true) -> loss grad -> backward(grad).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/ops.hpp"
#include "nn/tensor.hpp"
#include "support/rng.hpp"

namespace tanglefl::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Optional intra-node kernel pool used by this layer's GEMM calls. The
  /// kernels partition output rows only, so results are bit-identical with
  /// or without a pool; null (the default) runs every kernel serially. The
  /// pool must outlive the layer's forward/backward calls — callers that
  /// set it for a training run should clear it afterwards.
  void set_kernel_pool(ThreadPool* pool) noexcept { kernel_pool_ = pool; }

  /// Computes the layer output. `training` enables train-only behaviour
  /// (dropout masks). The input is cached for backward().
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Given d(loss)/d(output), accumulates parameter gradients and returns
  /// d(loss)/d(input). Must follow a forward() call.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() for a layer whose input gradient nothing reads (a model's
  /// first layer): accumulates the same parameter gradients. Layers that
  /// can skip the input-gradient work override it.
  virtual void backward_parameters(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Trainable parameter tensors (empty for stateless layers).
  virtual std::vector<Tensor*> parameters() { return {}; }
  /// Gradient tensors, parallel to parameters().
  virtual std::vector<Tensor*> gradients() { return {}; }

  /// Randomly initializes parameters (He/Xavier as appropriate).
  virtual void init(Rng& rng) { (void)rng; }

  virtual std::string name() const = 0;

  /// Deep copy including current parameter values.
  virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  ThreadPool* kernel_pool_ = nullptr;
};

/// Fully connected layer: y = x * W + b with x(batch, in), W(in, out).
class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override { return {&dweight_, &dbias_}; }
  void init(Rng& rng) override;
  std::string name() const override { return "Linear"; }
  std::unique_ptr<Layer> clone() const override;

  const Tensor& weight() const noexcept { return weight_; }
  const Tensor& bias() const noexcept { return bias_; }

 private:
  std::size_t in_features_, out_features_;
  Tensor weight_, bias_, dweight_, dbias_;
  Tensor cached_input_;
};

/// Elementwise rectified linear unit.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>();
  }

 private:
  Tensor cached_input_;
};

/// Inverted dropout; identity at evaluation time.
class Dropout final : public Layer {
 public:
  explicit Dropout(double drop_probability);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void init(Rng& rng) override { rng_ = rng.split(0x0d0f0u); }
  std::string name() const override { return "Dropout"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  double drop_probability_;
  Rng rng_{0};
  std::vector<float> mask_;
};

/// 2-D convolution over (batch, channels, height, width) tensors.
class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride = 1, std::size_t padding = 0);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_parameters(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override { return {&dweight_, &dbias_}; }
  void init(Rng& rng) override;
  std::string name() const override { return "Conv2D"; }
  std::unique_ptr<Layer> clone() const override;

  // Read-only views for the eval engine's fused multi-model pass, which
  // shares one packed input operand across models and needs the layer's
  // geometry and parameters to replay the per-model GEMMs.
  const Tensor& weight() const noexcept { return weight_; }
  const Tensor& bias() const noexcept { return bias_; }
  ops::Conv2DShape shape() const noexcept {
    return ops::Conv2DShape{in_channels_, out_channels_, kernel_, stride_,
                            padding_};
  }

 private:
  ops::Conv2DShape conv_shape();

  std::size_t in_channels_, out_channels_, kernel_, stride_, padding_;
  Tensor weight_, bias_, dweight_, dbias_;
  Tensor cached_input_;
  // Padded planes and operand panels, reused across minibatches.
  ops::Workspace workspace_;
};

/// Max pooling with a square window.
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(std::size_t window, std::size_t stride = 0);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2D"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t window_, stride_;
  std::vector<std::size_t> argmax_;
  std::vector<std::size_t> input_shape_;
};

/// Collapses all non-batch dimensions: (b, ...) -> (b, prod(...)).
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>();
  }

 private:
  std::vector<std::size_t> input_shape_;
};

/// Token embedding: (batch, seq) ids-as-floats -> (batch, seq, dim).
class Embedding final : public Layer {
 public:
  Embedding(std::size_t vocab_size, std::size_t dim);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_}; }
  std::vector<Tensor*> gradients() override { return {&dweight_}; }
  void init(Rng& rng) override;
  std::string name() const override { return "Embedding"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t vocab_size_, dim_;
  Tensor weight_, dweight_;
  Tensor cached_input_;
};

/// Single LSTM layer over (batch, seq, input_dim) producing the full hidden
/// sequence (batch, seq, hidden). Stack two for the paper's "stacked LSTM".
/// Gate order in the fused weight matrices is (input, forget, cell, output).
class LSTM final : public Layer {
 public:
  LSTM(std::size_t input_dim, std::size_t hidden_dim);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override {
    return {&w_input_, &w_hidden_, &bias_};
  }
  std::vector<Tensor*> gradients() override {
    return {&dw_input_, &dw_hidden_, &dbias_};
  }
  void init(Rng& rng) override;
  std::string name() const override { return "LSTM"; }
  std::unique_ptr<Layer> clone() const override;

  /// Oracle for the fused forward/backward: the legacy per-timestep path on
  /// the naive ops::reference GEMMs. Tests call it directly; nothing in the
  /// program does. It fills the same caches, so backward_reference must
  /// follow forward_reference.
  Tensor forward_reference(const Tensor& input);
  Tensor backward_reference(const Tensor& grad_output);

 private:
  void ensure_cache_shapes(std::size_t batch, std::size_t seq);

  std::size_t input_dim_, hidden_dim_;
  Tensor w_input_;   // (input_dim, 4*hidden)
  Tensor w_hidden_;  // (hidden, 4*hidden)
  Tensor bias_;      // (4*hidden)
  Tensor dw_input_, dw_hidden_, dbias_;

  // Per-forward caches for BPTT, laid out as whole sequences so the fused
  // path can GEMM over strided timestep views instead of copied slices.
  Tensor cached_input_;
  Tensor gates_;   // (batch, seq, 4*hidden) activated gates
  Tensor hidden_;  // (batch, seq, hidden) h_t
  Tensor cell_;    // (batch, seq, hidden) c_t
  // Scratch for pre-activations / dgates, reused across minibatches.
  ops::Workspace workspace_;
};

/// Selects the final timestep: (batch, seq, dim) -> (batch, dim).
class LastTimestep final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "LastTimestep"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<LastTimestep>();
  }

 private:
  std::vector<std::size_t> input_shape_;
};

}  // namespace tanglefl::nn
