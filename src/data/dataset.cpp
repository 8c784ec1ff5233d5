#include "data/dataset.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace tanglefl::data {

DataSplit DataSplit::gather(std::span<const std::size_t> indices) const {
  const std::size_t stride = size() == 0 ? 0 : features.size() / size();
  std::vector<std::size_t> shape = features.shape();
  shape[0] = indices.size();

  DataSplit out;
  out.features = nn::Tensor(std::move(shape));
  out.labels.reserve(indices.size());
  float* dst = out.features.data();
  const float* src = features.data();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::size_t i = indices[k];
    assert(i < size());
    std::copy_n(src + i * stride, stride, dst + k * stride);
    out.labels.push_back(labels[i]);
  }
  return out;
}

DataSplit DataSplit::slice(std::size_t start, std::size_t count) const {
  assert(start + count <= size());
  const std::size_t stride = size() == 0 ? 0 : features.size() / size();
  std::vector<std::size_t> shape = features.shape();
  shape[0] = count;

  DataSplit out;
  out.features = nn::Tensor(std::move(shape));
  std::copy_n(features.data() + start * stride, count * stride,
              out.features.data());
  out.labels.assign(labels.begin() + static_cast<std::ptrdiff_t>(start),
                    labels.begin() + static_cast<std::ptrdiff_t>(start + count));
  return out;
}

FederatedDataset::FederatedDataset(std::string name, std::string model_type,
                                   std::size_t num_classes,
                                   double train_fraction,
                                   std::vector<UserData> users)
    : name_(std::move(name)),
      model_type_(std::move(model_type)),
      num_classes_(num_classes),
      train_fraction_(train_fraction),
      users_(std::move(users)) {}

void FederatedDataset::filter_min_samples(std::size_t min_samples) {
  std::erase_if(users_, [min_samples](const UserData& u) {
    return u.total_samples() < min_samples;
  });
}

DataSplit FederatedDataset::pooled_test(
    std::span<const std::size_t> user_indices) const {
  // Sizes first, then one allocation and one copy of each user's rows.
  std::vector<std::size_t> shape;  // of the first non-empty split
  std::size_t samples = 0;
  for (const std::size_t i : user_indices) {
    const DataSplit& test = users_.at(i).test;
    if (test.empty()) continue;
    if (shape.empty()) {
      shape = test.features.shape();
    } else if (!std::equal(shape.begin() + 1, shape.end(),
                           test.features.shape().begin() + 1,
                           test.features.shape().end())) {
      throw std::invalid_argument(
          "FederatedDataset::pooled_test: shape mismatch");
    }
    samples += test.size();
  }
  DataSplit pooled;
  if (shape.empty()) return pooled;
  shape[0] = samples;
  pooled.features = nn::Tensor(std::move(shape));
  pooled.labels.reserve(samples);
  float* out = pooled.features.data();
  for (const std::size_t i : user_indices) {
    const DataSplit& test = users_[i].test;
    out = std::copy_n(test.features.data(), test.features.size(), out);
    pooled.labels.insert(pooled.labels.end(), test.labels.begin(),
                         test.labels.end());
  }
  return pooled;
}

DatasetStats FederatedDataset::stats() const {
  DatasetStats stats;
  stats.name = name_;
  stats.model_type = model_type_;
  stats.train_fraction = train_fraction_;
  stats.num_classes = num_classes_;
  stats.num_users = users_.size();
  stats.min_samples_per_user = std::numeric_limits<std::size_t>::max();
  for (const auto& user : users_) {
    const std::size_t n = user.total_samples();
    stats.total_samples += n;
    stats.min_samples_per_user = std::min(stats.min_samples_per_user, n);
    stats.max_samples_per_user = std::max(stats.max_samples_per_user, n);
  }
  if (users_.empty()) stats.min_samples_per_user = 0;
  stats.mean_samples_per_user =
      users_.empty() ? 0.0
                     : static_cast<double>(stats.total_samples) /
                           static_cast<double>(users_.size());
  return stats;
}

std::pair<DataSplit, DataSplit> train_test_split(const DataSplit& all,
                                                 double train_fraction,
                                                 Rng& rng) {
  assert(train_fraction >= 0.0 && train_fraction <= 1.0);
  const std::vector<std::size_t> perm = rng.permutation(all.size());
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(all.size()) * train_fraction);
  const std::span<const std::size_t> train_idx(perm.data(), cut);
  const std::span<const std::size_t> test_idx(perm.data() + cut,
                                              perm.size() - cut);
  return {all.gather(train_idx), all.gather(test_idx)};
}

}  // namespace tanglefl::data
