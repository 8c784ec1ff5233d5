#include "data/partition.hpp"

#include <cassert>
#include <tuple>

namespace tanglefl::data {

std::vector<DataSplit> partition_dirichlet(const DataSplit& pool,
                                           std::size_t num_users,
                                           std::size_t num_classes,
                                           double alpha, Rng& rng) {
  assert(num_users >= 1 && num_classes >= 1);

  // Bucket sample indices by class, shuffled within each class.
  std::vector<std::vector<std::size_t>> by_class(num_classes);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto label = static_cast<std::size_t>(pool.labels[i]);
    assert(label < num_classes);
    by_class[label].push_back(i);
  }
  for (auto& bucket : by_class) rng.shuffle(bucket);

  // For each class, split its samples across users proportionally to a
  // Dirichlet draw over users.
  std::vector<std::vector<std::size_t>> per_user(num_users);
  for (std::size_t c = 0; c < num_classes; ++c) {
    const std::vector<double> proportions = rng.dirichlet(alpha, num_users);
    const auto& bucket = by_class[c];
    std::size_t offset = 0;
    for (std::size_t u = 0; u < num_users; ++u) {
      std::size_t take = (u + 1 == num_users)
                             ? bucket.size() - offset
                             : static_cast<std::size_t>(
                                   proportions[u] *
                                   static_cast<double>(bucket.size()));
      take = std::min(take, bucket.size() - offset);
      for (std::size_t k = 0; k < take; ++k) {
        per_user[u].push_back(bucket[offset + k]);
      }
      offset += take;
    }
  }

  std::vector<DataSplit> shards;
  shards.reserve(num_users);
  for (auto& indices : per_user) {
    rng.shuffle(indices);
    shards.push_back(pool.gather(indices));
  }
  return shards;
}

FederatedDataset federate(std::string name, std::string model_type,
                          std::size_t num_classes, double train_fraction,
                          std::vector<DataSplit> shards, Rng& rng) {
  std::vector<UserData> users;
  users.reserve(shards.size());
  for (std::size_t u = 0; u < shards.size(); ++u) {
    UserData user;
    user.user_id = "user_" + std::to_string(u);
    Rng split_rng = rng.split(u + 1);
    std::tie(user.train, user.test) =
        train_test_split(shards[u], train_fraction, split_rng);
    users.push_back(std::move(user));
  }
  return FederatedDataset(std::move(name), std::move(model_type), num_classes,
                          train_fraction, std::move(users));
}

}  // namespace tanglefl::data
