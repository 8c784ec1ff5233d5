// Flat parameter-vector utilities. In the learning tangle every transaction
// payload is one such vector (Section III: "each transaction consists of a
// full set of parameters"), so averaging and serialization operate here,
// independent of any model object.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/serialize.hpp"

namespace tanglefl::nn {

/// A full set of model parameters, flattened.
using ParamVector = std::vector<float>;

/// Unweighted mean of equally sized parameter vectors (the tangle averages
/// parent models with equal weight, Section III-C). Requires at least one
/// vector; all must have the same size.
ParamVector average_params(std::span<const ParamVector> params);

/// Unweighted mean via pointers, avoiding copies of large payloads.
ParamVector average_params(std::span<const ParamVector* const> params);

/// Weighted mean, weights normalized internally (FedAvg weights updates by
/// local sample count). Requires matching sizes and a positive weight sum.
ParamVector weighted_average_params(std::span<const ParamVector> params,
                                    std::span<const double> weights);

/// Binary round-trip for ledger payloads and snapshots.
void serialize_params(std::span<const float> params, ByteWriter& writer);
ParamVector deserialize_params(ByteReader& reader);

}  // namespace tanglefl::nn
