#include "core/biased_walk.hpp"

#include <algorithm>
#include <cmath>

#include "core/eval_engine.hpp"
#include "obs/metrics.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::core {
namespace {

// Shares the plain walk's statistics namespace: biased walks are still tip
// selection walks, just with an extra loss term in the bias.
obs::Counter& biased_walk_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.tip_walk.biased_count");
  return counter;
}

obs::Histogram& biased_walk_length_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "tangle.tip_walk.length", obs::BucketLayout::exponential(1.0, 2.0, 14));
  return hist;
}

obs::Counter& walk_loss_eval_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.tip_walk.loss_evals");
  return counter;
}

}  // namespace

double LocalLossCache::loss(const tangle::TangleView& view,
                            tangle::TxIndex index) {
  if (const auto it = cache_.find(index); it != cache_.end()) {
    return it->second;
  }
  double value = 0.0;  // no data to bias with: the structural walk
  if (batched_ != nullptr) {
    const tangle::PayloadId payload =
        view.tangle().transaction(index).payload;
    const EvalOutcome outcome =
        engine_->payloads_eval_many(*store_, {&payload, 1}, *batched_).front();
    value = outcome.result.loss;
    if (!outcome.cache_hit) {
      ++evaluations_;
      walk_loss_eval_counter().increment();
    }
  }
  cache_.emplace(index, value);
  return value;
}

void LocalLossCache::prefetch(const tangle::TangleView& view,
                              std::span<const tangle::TxIndex> indices) {
  if (batched_ == nullptr) return;
  std::vector<tangle::TxIndex> pending;
  std::vector<tangle::PayloadId> payloads;
  for (const tangle::TxIndex index : indices) {
    if (cache_.find(index) != cache_.end()) continue;
    pending.push_back(index);
    payloads.push_back(view.tangle().transaction(index).payload);
  }
  if (pending.empty()) return;
  // One group per branch: the engine resolves payload-cache hits up front
  // and fuses the misses. Distinct transactions sharing a payload memoize
  // the same loss, exactly as serial probes would via the payload cache.
  const std::vector<EvalOutcome> outcomes =
      engine_->payloads_eval_many(*store_, payloads, *batched_, pool_);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    cache_.emplace(pending[i], outcomes[i].result.loss);
    if (!outcomes[i].cache_hit) {
      ++evaluations_;
      walk_loss_eval_counter().increment();
    }
  }
}

tangle::TxIndex biased_random_walk_tip(const tangle::TangleView& view,
                                       const tangle::ViewCacheEntry& cones,
                                       LocalLossCache& cache, Rng& rng,
                                       const BiasedWalkConfig& config) {
  biased_walk_counter().increment();
  // Prune frontier under milestone pruning, genesis otherwise; loss probes
  // only ever touch approvers of walked nodes, which all lie in the live
  // window, so released payloads are never fetched. Cone sizes start there.
  const std::span<const std::uint32_t> future_cones =
      cones.future_cone_sizes();
  const tangle::TxIndex root = cones.root();
  tangle::TxIndex current = root;
  std::vector<double> weights;
  std::uint64_t steps = 0;
  for (;;) {
    const std::span<const tangle::TxIndex> approvers =
        cones.approvers(current);
    if (approvers.empty()) {
      biased_walk_length_histogram().record(static_cast<double>(steps));
      return current;
    }
    ++steps;
    if (approvers.size() == 1) {
      current = approvers.front();
      continue;
    }

    // Normalize both terms against the branch optimum for stability.
    // Group-probe the branch first: every approver's loss is needed below,
    // and one fused evaluation beats per-approver standalone forwards.
    if (config.beta != 0.0) cache.prefetch(view, approvers);
    std::uint32_t max_weight = 0;
    double min_loss = 1e300;
    for (const tangle::TxIndex a : approvers) {
      max_weight = std::max(max_weight, future_cones[a - root]);
      if (config.beta != 0.0) {
        min_loss = std::min(min_loss, cache.loss(view, a));
      }
    }
    weights.clear();
    for (const tangle::TxIndex a : approvers) {
      double exponent =
          config.alpha * (static_cast<double>(future_cones[a - root]) -
                          static_cast<double>(max_weight));
      if (config.beta != 0.0) {
        exponent -= config.beta * (cache.loss(view, a) - min_loss);
      }
      weights.push_back(std::exp(exponent));
    }
    current = approvers[rng.weighted_choice(weights)];
  }
}

std::vector<tangle::TxIndex> biased_select_tips(
    const tangle::TangleView& view, const tangle::ViewCacheEntry& cones,
    std::size_t count, LocalLossCache& cache, Rng& rng,
    const BiasedWalkConfig& config) {
  std::vector<tangle::TxIndex> tips;
  tips.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tips.push_back(biased_random_walk_tip(view, cones, cache, rng, config));
  }
  return tips;
}

}  // namespace tanglefl::core
