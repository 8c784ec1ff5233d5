// Local training and evaluation: the Train() and ValidationLoss() steps of
// the paper's Algorithm 2, shared by tangle nodes and FedAvg clients.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "data/poison.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace tanglefl::data {

struct TrainConfig {
  std::size_t epochs = 1;        // "Local Epochs" in Table I
  std::size_t batch_size = 16;
  nn::SgdConfig sgd;             // learning rate etc.
  bool use_adam = false;         // switch to Adam (lr from `adam`)
  nn::AdamConfig adam;
  // Optional intra-node pool for the NN kernels. Row-partitioned, so the
  // trained parameters are bit-identical for any pool size (including
  // none). Not owned; must outlive the train_local call.
  ThreadPool* kernel_pool = nullptr;
};

struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
  std::size_t samples = 0;
};

/// Default evaluation minibatch size. Cached eval results are a function of
/// (parameters, split, batch boundaries), so anything that caches or
/// pre-batches evaluations (core::EvalEngine) must use this exact value;
/// core::BatchedSplit batches with it directly.
inline constexpr std::size_t kEvalBatchSize = 64;

/// Runs `config.epochs` of minibatch SGD over `split`, mutating `model` in
/// place. Batching order is drawn from `rng`, so results are reproducible.
/// Returns the mean training loss of the final epoch.
double train_local(nn::Model& model, const DataSplit& split,
                   const TrainConfig& config, Rng& rng);

/// Mean loss and accuracy over all of `split`, evaluated in minibatches.
EvalResult evaluate(nn::Model& model, const DataSplit& split,
                    std::size_t batch_size = kEvalBatchSize);

/// Fraction of true `source_class` samples predicted as `target_class` —
/// the attack-success metric of Fig. 6b. Returns 0 when no source-class
/// samples exist.
double targeted_misclassification_rate(nn::Model& model,
                                       const DataSplit& split,
                                       std::int32_t source_class,
                                       std::int32_t target_class,
                                       std::size_t batch_size = kEvalBatchSize);

/// Backdoor attack-success rate: stamps `trigger` into every sample of
/// `clean_test` whose true label is not already the target class and
/// returns the fraction predicted as the target. 0 when no such samples
/// exist.
double backdoor_success_rate(nn::Model& model, const DataSplit& clean_test,
                             const BackdoorTrigger& trigger,
                             std::size_t batch_size = kEvalBatchSize);

}  // namespace tanglefl::data
