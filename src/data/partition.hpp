// Generic partitioning utilities for building federated datasets out of a
// pooled sample collection — the standard Dirichlet label-skew protocol,
// exposed so downstream users can federate their own data through the
// public API (see examples/custom_model.cpp).
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace tanglefl::data {

/// Splits `pool` into `num_users` shards where each user's label mix is a
/// Dirichlet(alpha) draw: small alpha -> strongly non-IID, large alpha ->
/// nearly IID. Every sample is assigned to exactly one user.
std::vector<DataSplit> partition_dirichlet(const DataSplit& pool,
                                           std::size_t num_users,
                                           std::size_t num_classes,
                                           double alpha, Rng& rng);

/// Wraps pre-partitioned shards into a FederatedDataset, splitting each
/// shard into train/test at `train_fraction`.
FederatedDataset federate(std::string name, std::string model_type,
                          std::size_t num_classes, double train_fraction,
                          std::vector<DataSplit> shards, Rng& rng);

}  // namespace tanglefl::data
