#include "nn/model.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tanglefl::nn {
namespace {

// Per-call wall timing of the two training-step halves; timing-kind
// (manifest/trace only). The spans are batch-granular, so even a tracing
// run stays far from per-element overhead.
obs::Histogram& forward_timing() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "nn.forward_us", obs::BucketLayout::exponential(4.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

obs::Histogram& backward_timing() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "nn.backward_us", obs::BucketLayout::exponential(4.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

}  // namespace

Model& Model::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

void Model::init(Rng& rng) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Rng child = rng.split(i + 1);
    layers_[i]->init(child);
  }
}

Tensor Model::forward(const Tensor& input, bool training) {
  return forward_from(0, input, training);
}

Tensor Model::forward_from(std::size_t first_layer, const Tensor& input,
                           bool training) {
  obs::TraceScope span("nn.forward", &forward_timing());
  assert(first_layer < layers_.size());
  // Each layer reads its input in place; only layer outputs are held.
  const Tensor* x = &input;
  Tensor held;
  for (std::size_t i = first_layer; i < layers_.size(); ++i) {
    held = layers_[i]->forward(*x, training);
    x = &held;
  }
  return held;
}

void Model::backward(const Tensor& grad_output) {
  obs::TraceScope span("nn.backward", &backward_timing());
  assert(!layers_.empty());
  // Each layer reads the gradient in place; only layer results are held.
  const Tensor* g = &grad_output;
  Tensor held;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    held = layers_[i]->backward(*g);
    g = &held;
  }
  layers_.front()->backward_parameters(*g);
}

void Model::set_kernel_pool(ThreadPool* pool) noexcept {
  for (auto& layer : layers_) layer->set_kernel_pool(pool);
}

void Model::zero_gradients() {
  for (auto& layer : layers_) {
    for (Tensor* g : layer->gradients()) g->zero();
  }
}

std::size_t Model::parameter_count() const {
  std::size_t count = 0;
  for (const auto& layer : layers_) {
    for (const Tensor* p : const_cast<Layer&>(*layer).parameters()) {
      count += p->size();
    }
  }
  return count;
}

std::vector<float> Model::get_parameters() const {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (const auto& layer : layers_) {
    for (const Tensor* p : const_cast<Layer&>(*layer).parameters()) {
      const auto values = p->values();
      flat.insert(flat.end(), values.begin(), values.end());
    }
  }
  return flat;
}

void Model::set_parameters(std::span<const float> flat) {
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->parameters()) {
      if (offset + p->size() > flat.size()) {
        throw std::invalid_argument("set_parameters: vector too short");
      }
      auto values = p->values();
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = flat[offset + i];
      }
      offset += p->size();
    }
  }
  if (offset != flat.size()) {
    throw std::invalid_argument("set_parameters: vector size mismatch");
  }
}

std::vector<float> Model::get_gradients() const {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (const auto& layer : layers_) {
    for (const Tensor* g : const_cast<Layer&>(*layer).gradients()) {
      const auto values = g->values();
      flat.insert(flat.end(), values.begin(), values.end());
    }
  }
  return flat;
}

std::vector<Tensor*> Model::parameter_tensors() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Model::gradient_tensors() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->gradients()) out.push_back(g);
  }
  return out;
}

Model Model::clone() const {
  Model copy;
  for (const auto& layer : layers_) copy.add(layer->clone());
  return copy;
}

std::string Model::summary() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) out << " -> ";
    out << layers_[i]->name();
  }
  out << " (" << parameter_count() << " params)";
  return out.str();
}

}  // namespace tanglefl::nn
