#include "fedavg/fedavg.hpp"

#include <algorithm>

#include "fedavg/krum.hpp"
#include "support/log.hpp"

namespace tanglefl::fedavg {
namespace {

constexpr std::uint64_t kInitStream = 0x6e51;
constexpr std::uint64_t kClientStream = 0xc11e;
constexpr std::uint64_t kSelectStream = 0x9a57;
constexpr std::uint64_t kEvalStream = 0xe7a1;
constexpr std::uint64_t kMaliciousStream = 0x3a11;
constexpr std::uint64_t kNoiseStream = 0xbad5;

}  // namespace

FedAvgServer::FedAvgServer(const data::FederatedDataset& dataset,
                           nn::ModelFactory factory, FedAvgConfig config)
    : dataset_(&dataset),
      factory_(std::move(factory)),
      config_(config),
      master_rng_(config.seed),
      pool_(std::max<std::size_t>(1, config.threads)) {
  core::validate_run_config(static_cast<double>(config_.eval_every),
                            config_.eval_nodes_fraction,
                            config_.malicious_fraction);
  nn::Model model = factory_();
  Rng init_rng = master_rng_.split(kInitStream);
  model.init(init_rng);
  global_ = model.get_parameters();

  const std::size_t num_users = dataset_->num_users();
  const auto malicious_count = static_cast<std::size_t>(
      config_.malicious_fraction * static_cast<double>(num_users) + 0.5);
  if (malicious_count > 0 && config_.attack != core::AttackType::kNone) {
    Rng rng = master_rng_.split(kMaliciousStream);
    malicious_users_ =
        rng.sample_without_replacement(num_users, malicious_count);
    std::sort(malicious_users_.begin(), malicious_users_.end());
    if (config_.attack == core::AttackType::kLabelFlip) {
      poisoned_users_.reserve(malicious_users_.size());
      for (const std::size_t u : malicious_users_) {
        poisoned_users_.push_back(
            data::make_label_flip_user(dataset_->user(u), config_.flip));
      }
    }
  }
}

bool FedAvgServer::attack_active(std::uint64_t round) const noexcept {
  return config_.attack != core::AttackType::kNone &&
         round >= config_.attack_start_round && !malicious_users_.empty();
}

bool FedAvgServer::is_malicious(std::size_t user) const noexcept {
  return std::binary_search(malicious_users_.begin(), malicious_users_.end(),
                            user);
}

std::size_t FedAvgServer::run_round(std::uint64_t round) {
  const std::size_t num_users = dataset_->num_users();
  const std::size_t clients = std::min(config_.clients_per_round, num_users);

  Rng selection_rng = master_rng_.split(kSelectStream).split(round);
  const std::vector<std::size_t> chosen =
      selection_rng.sample_without_replacement(num_users, clients);
  const bool attacking = attack_active(round);

  std::vector<nn::ParamVector> updates(clients);
  std::vector<double> weights(clients, 0.0);

  pool_.parallel_for(clients, [&](std::size_t slot) {
    const std::size_t user_index = chosen[slot];
    const bool malicious = attacking && is_malicious(user_index);

    if (malicious && config_.attack == core::AttackType::kRandomPoison) {
      // The Fig. 5 adversary: submit standard-normal parameters. The lie
      // extends to the sample count, claiming the user's full weight.
      nn::ParamVector poison(global_.size());
      Rng noise_rng = master_rng_.split(kNoiseStream)
                          .split(round)
                          .split(user_index + 1);
      for (auto& p : poison) p = static_cast<float>(noise_rng.normal());
      updates[slot] = std::move(poison);
      weights[slot] = std::max<double>(
          1.0, static_cast<double>(dataset_->user(user_index).train.size()));
      return;
    }

    const data::UserData* user = &dataset_->user(user_index);
    if (malicious && config_.attack == core::AttackType::kLabelFlip) {
      const auto it = std::lower_bound(malicious_users_.begin(),
                                       malicious_users_.end(), user_index);
      user = &poisoned_users_[static_cast<std::size_t>(
          it - malicious_users_.begin())];
    }
    if (user->train.empty()) return;

    nn::Model model = factory_();
    model.set_parameters(global_);
    Rng train_rng = master_rng_.split(kClientStream)
                        .split(round)
                        .split(user_index + 1);
    data::train_local(model, user->train, config_.training, train_rng);
    updates[slot] = model.get_parameters();
    // FedAvg weights client updates by their local sample count.
    weights[slot] = static_cast<double>(user->train.size());
  });

  std::vector<nn::ParamVector> contributing;
  std::vector<double> contributing_weights;
  for (std::size_t slot = 0; slot < clients; ++slot) {
    if (weights[slot] <= 0.0) continue;
    contributing.push_back(std::move(updates[slot]));
    contributing_weights.push_back(weights[slot]);
  }
  if (contributing.empty()) return 0;

  switch (config_.aggregation) {
    case Aggregation::kWeightedAverage:
      global_ =
          nn::weighted_average_params(contributing, contributing_weights);
      break;
    case Aggregation::kKrum:
      global_ = krum_aggregate(contributing, config_.krum_byzantine_f, 1);
      break;
    case Aggregation::kMultiKrum:
      global_ = krum_aggregate(contributing, config_.krum_byzantine_f,
                               config_.multi_k);
      break;
  }
  return contributing.size();
}

core::RoundRecord FedAvgServer::evaluate(std::uint64_t round) {
  core::RoundRecord record;
  record.round = round;

  const std::size_t num_users = dataset_->num_users();
  const auto eval_users = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.eval_nodes_fraction *
                                  static_cast<double>(num_users) +
                                  0.5));
  Rng eval_rng = master_rng_.split(kEvalStream).split(round);
  const std::vector<std::size_t> users =
      eval_rng.sample_without_replacement(num_users, eval_users);
  const data::DataSplit pooled = dataset_->pooled_test(users);
  if (pooled.empty()) return record;

  nn::Model model = factory_();
  model.set_parameters(global_);
  const data::EvalResult eval = data::evaluate(model, pooled);
  record.accuracy = eval.accuracy;
  record.loss = eval.loss;
  record.target_misclassification = data::targeted_misclassification_rate(
      model, pooled, config_.flip.source_class, config_.flip.target_class);
  return record;
}

core::RunResult FedAvgServer::run() {
  core::RunResult result;
  result.label = "fedavg";
  for (std::uint64_t round = 1; round <= config_.rounds; ++round) {
    run_round(round);
    if (round % config_.eval_every == 0 || round == config_.rounds) {
      const core::RoundRecord record = evaluate(round);
      result.history.push_back(record);
      log_info() << "fedavg round " << round << ": acc=" << record.accuracy
                 << " loss=" << record.loss;
    }
  }
  return result;
}

core::RunResult run_fedavg(const data::FederatedDataset& dataset,
                           nn::ModelFactory factory,
                           const FedAvgConfig& config, std::string label) {
  FedAvgServer server(dataset, std::move(factory), config);
  core::RunResult result = server.run();
  result.label = std::move(label);
  return result;
}

}  // namespace tanglefl::fedavg
