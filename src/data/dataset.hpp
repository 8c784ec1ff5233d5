// Federated dataset model: horizontally partitioned data where each user
// (device) holds its own non-IID train and test split over a common feature
// space — the setting of Section III ("devices have different sets of
// non-IID training and validation examples that include a common set of
// features").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "support/rng.hpp"

namespace tanglefl::data {

/// A labeled sample set: features(n, ...) with one label per row.
struct DataSplit {
  nn::Tensor features;               // first dimension indexes examples
  std::vector<std::int32_t> labels;  // size == features.dim(0)

  std::size_t size() const noexcept { return labels.size(); }
  bool empty() const noexcept { return labels.empty(); }

  /// Copies the examples at `indices` into a contiguous batch.
  [[nodiscard]] DataSplit gather(std::span<const std::size_t> indices) const;

  /// Copies the contiguous example range [start, start + count) into a
  /// batch — equivalent to gather({start, ..., start + count - 1}) without
  /// materializing an index vector (one block copy instead of per-row).
  [[nodiscard]] DataSplit slice(std::size_t start, std::size_t count) const;

  /// Per-example feature shape (the split's shape minus the leading dim).
  [[nodiscard]] std::vector<std::size_t> example_shape() const;
};

/// One participating device's local data.
struct UserData {
  std::string user_id;
  DataSplit train;
  DataSplit test;

  std::size_t total_samples() const noexcept {
    return train.size() + test.size();
  }
};

/// Summary statistics in the shape of the paper's Table I.
struct DatasetStats {
  std::string name;
  std::string model_type;
  double train_fraction = 0.0;
  std::size_t num_classes = 0;
  std::size_t num_users = 0;
  std::size_t total_samples = 0;
  std::size_t min_samples_per_user = 0;
  std::size_t max_samples_per_user = 0;
  double mean_samples_per_user = 0.0;
};

/// A horizontally partitioned dataset: one UserData per device.
class FederatedDataset {
 public:
  FederatedDataset(std::string name, std::string model_type,
                   std::size_t num_classes, double train_fraction,
                   std::vector<UserData> users);

  const std::string& name() const noexcept { return name_; }
  std::size_t num_classes() const noexcept { return num_classes_; }
  std::size_t num_users() const noexcept { return users_.size(); }
  double train_fraction() const noexcept { return train_fraction_; }

  const UserData& user(std::size_t i) const { return users_.at(i); }
  const std::vector<UserData>& users() const noexcept { return users_; }

  /// Drops users with fewer than `min_samples` total samples (LEAF's
  /// Shakespeare preprocessing keeps users with >= 64 samples).
  void filter_min_samples(std::size_t min_samples);

  /// Pools the test splits of the users at `user_indices`, in that order,
  /// into one split — the paper validates on "the test datasets of a random
  /// selection of 10% of all nodes". Empty splits are skipped; throws
  /// std::invalid_argument when two non-empty splits differ in per-example
  /// shape.
  [[nodiscard]] DataSplit pooled_test(
      std::span<const std::size_t> user_indices) const;

  /// Summary statistics for reporting (Table I).
  [[nodiscard]] DatasetStats stats() const;

 private:
  std::string name_;
  std::string model_type_;
  std::size_t num_classes_;
  double train_fraction_;
  std::vector<UserData> users_;
};

/// Concatenates the users of several datasets into one (all inputs must
/// agree on the class count). User ids are prefixed with the source
/// dataset's name so downstream analysis can recover the origin — used for
/// the clustered-population scenario of the Section VI outlook.
FederatedDataset merge_federated(std::string name, std::string model_type,
                                 double train_fraction,
                                 std::span<const FederatedDataset* const> parts);

/// Splits `all` into train/test by shuffling with `rng` and cutting at
/// `train_fraction`.
std::pair<DataSplit, DataSplit> train_test_split(const DataSplit& all,
                                                 double train_fraction,
                                                 Rng& rng);

/// Draws a random minibatch of at most `batch_size` examples.
DataSplit sample_batch(const DataSplit& split, std::size_t batch_size,
                       Rng& rng);

}  // namespace tanglefl::data
