#include "nn/params.hpp"

#include <stdexcept>

namespace tanglefl::nn {

ParamVector average_params(std::span<const ParamVector> params) {
  std::vector<const ParamVector*> pointers;
  pointers.reserve(params.size());
  for (const auto& p : params) pointers.push_back(&p);
  return average_params(pointers);
}

ParamVector average_params(std::span<const ParamVector* const> params) {
  if (params.empty()) {
    throw std::invalid_argument("average_params: no inputs");
  }
  const std::size_t n = params.front()->size();
  if (params.size() == 2) {
    // Two parents is the paper's default (num_tips = 2) and dominates the
    // simulation hot path, so skip the double accumulator vector. 0.5 is
    // exact in binary, hence (a + b) * 0.5 in double is bit-identical to
    // the generic accumulate-then-scale path.
    const ParamVector& a = *params[0];
    const ParamVector& b = *params[1];
    if (b.size() != n) {
      throw std::invalid_argument("average_params: size mismatch");
    }
    ParamVector out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<float>(
          (static_cast<double>(a[i]) + static_cast<double>(b[i])) * 0.5);
    }
    return out;
  }
  std::vector<double> acc(n, 0.0);
  for (const ParamVector* p : params) {
    if (p->size() != n) {
      throw std::invalid_argument("average_params: size mismatch");
    }
    for (std::size_t i = 0; i < n; ++i) acc[i] += (*p)[i];
  }
  ParamVector out(n);
  const double inv = 1.0 / static_cast<double>(params.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(acc[i] * inv);
  }
  return out;
}

ParamVector weighted_average_params(std::span<const ParamVector> params,
                                    std::span<const double> weights) {
  if (params.empty() || params.size() != weights.size()) {
    throw std::invalid_argument("weighted_average_params: bad inputs");
  }
  double total_weight = 0.0;
  for (const double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument("weighted_average_params: negative weight");
    }
    total_weight += w;
  }
  if (total_weight <= 0.0) {
    throw std::invalid_argument("weighted_average_params: zero weight sum");
  }
  const std::size_t n = params.front().size();
  std::vector<double> acc(n, 0.0);
  for (std::size_t k = 0; k < params.size(); ++k) {
    if (params[k].size() != n) {
      throw std::invalid_argument("weighted_average_params: size mismatch");
    }
    const double w = weights[k] / total_weight;
    for (std::size_t i = 0; i < n; ++i) acc[i] += w * params[k][i];
  }
  ParamVector out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<float>(acc[i]);
  return out;
}

void serialize_params(std::span<const float> params, ByteWriter& writer) {
  writer.write_f32_span(params);
}

ParamVector deserialize_params(ByteReader& reader) {
  return reader.read_f32_vector();
}

}  // namespace tanglefl::nn
