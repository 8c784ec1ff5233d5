#include "core/node.hpp"

#include "core/biased_walk.hpp"
#include "core/eval_engine.hpp"
#include "core/rng_streams.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tanglefl::core {
namespace {

// Publish/suppress accounting (Algorithm 2's outcomes) plus the candidate
// statistics from the Section III-E robust selection step. All pure counts
// and value histograms — deterministic for a given seed and config.
obs::Counter& published_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("node.step.published");
  return counter;
}

obs::Counter& suppressed_no_improvement_counter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "node.step.suppressed.no_improvement");
  return counter;
}

obs::Counter& suppressed_no_data_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("node.step.suppressed.no_data");
  return counter;
}

// Distinct candidates whose loss a node *needed* this step (probed) vs the
// subset that actually cost forward passes (evaluated — an eval-cache
// miss), so `evaluated` scales with distinct new payloads rather than
// rounds × participants.
obs::Counter& candidate_probe_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("node.candidates.probed");
  return counter;
}

obs::Counter& candidate_eval_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("node.candidates.evaluated");
  return counter;
}

obs::Histogram& candidate_loss_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "node.candidate_loss", obs::BucketLayout::exponential(0.03125, 2.0, 12));
  return hist;
}

// Per-phase wall timing for Algorithm 2; timing-kind, so only populated
// when a harness enables obs timing.
obs::Histogram& reference_timing() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "node.reference_us", obs::BucketLayout::exponential(16.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

obs::Histogram& tip_selection_timing() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "node.tip_selection_us", obs::BucketLayout::exponential(16.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

obs::Histogram& train_timing() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "node.train_us", obs::BucketLayout::exponential(16.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

obs::Histogram& validate_timing() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "node.validate_us", obs::BucketLayout::exponential(16.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

}  // namespace

std::vector<tangle::TxIndex> HonestNode::choose_parents(
    NodeContext& context,
    const std::shared_ptr<const BatchedSplit>& prepared) {
  const std::size_t num_tips = std::max<std::size_t>(1, config_.num_tips);
  const std::size_t sample_size =
      std::max(num_tips, config_.tip_sample_size);

  Rng walk_rng = context.rng.split(streams::kWalk);
  std::vector<tangle::TxIndex> candidates;
  if (config_.use_biased_walk) {
    LocalLossCache cache(context.eval, context.store, prepared,
                         context.kernel_pool);
    const BiasedWalkConfig walk_config{config_.tip_selection.alpha,
                                       config_.walk_loss_beta};
    candidates = biased_select_tips(context.view, context.cones, sample_size,
                                    cache, walk_rng, walk_config);
  } else {
    candidates = tangle::select_tips(context.cones, sample_size, walk_rng,
                                     config_.tip_selection);
  }

  if (sample_size == num_tips || prepared == nullptr) {
    candidates.resize(num_tips);
    return candidates;
  }

  // Section III-E: validate every distinct candidate on local data and
  // average/approve only the best-performing ones.
  std::vector<tangle::TxIndex> distinct = candidates;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  // One batched group scores every distinct candidate: cache hits resolve up
  // front and the misses share input packs in the engine's fused pass.
  std::vector<tangle::PayloadId> payloads;
  payloads.reserve(distinct.size());
  for (const tangle::TxIndex tip : distinct) {
    payloads.push_back(context.view.tangle().transaction(tip).payload);
  }
  const std::vector<EvalOutcome> outcomes = context.eval.payloads_eval_many(
      context.store, payloads, *prepared, context.kernel_pool);
  std::vector<std::pair<double, tangle::TxIndex>> scored;
  scored.reserve(distinct.size());
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    candidate_probe_counter().increment();
    if (!outcomes[i].cache_hit) candidate_eval_counter().increment();
    candidate_loss_histogram().record(outcomes[i].result.loss);
    scored.emplace_back(outcomes[i].result.loss, distinct[i]);
  }
  std::sort(scored.begin(), scored.end());

  std::vector<tangle::TxIndex> parents;
  for (std::size_t i = 0; i < scored.size() && parents.size() < num_tips;
       ++i) {
    parents.push_back(scored[i].second);
  }
  // Fewer distinct candidates than requested tips: repeat the best one, as
  // the tangle allows approving the same transaction twice.
  while (parents.size() < num_tips) parents.push_back(parents.front());
  return parents;
}

std::optional<PublishRequest> HonestNode::step(NodeContext& context,
                                               const data::UserData& user) {
  obs::TraceScope step_span("node.step");
  if (user.train.empty()) {
    suppressed_no_data_counter().increment();
    return std::nullopt;
  }
  // Validate against local test data; fall back to the training split for
  // users without one so tiny users can still participate.
  const data::DataSplit& validation =
      user.test.empty() ? user.train : user.test;
  // Batch the validation split once (never empty: `train` is not); every
  // loss probe of this step (walk bias, candidate scoring, publish gate)
  // reuses the gathered tensors.
  const std::shared_ptr<const BatchedSplit> prepared =
      context.eval.prepare(validation);

  // w_r <- ChooseReferenceWeights(G)
  Rng reference_rng = context.rng.split(streams::kReference);
  ReferenceResult reference = [&] {
    obs::TraceScope span("node.choose_reference", &reference_timing());
    return choose_reference(context.view, context.store, context.cones,
                            reference_rng, config_.reference);
  }();

  // (w_1, .., w_n) <- TipSelection(G); w_avg <- mean
  const std::vector<tangle::TxIndex> parents = [&] {
    obs::TraceScope span("node.tip_selection", &tip_selection_timing());
    return choose_parents(context, prepared);
  }();
  std::vector<const nn::ParamVector*> parent_params;
  parent_params.reserve(parents.size());
  for (const tangle::TxIndex p : parents) {
    parent_params.push_back(
        &context.store.get(context.view.tangle().transaction(p).payload));
  }
  const nn::ParamVector averaged = nn::average_params(parent_params);

  // w_new <- Train(w_avg, epochs, lr)
  nn::Model model = context.factory();
  model.set_parameters(averaged);
  Rng train_rng = context.rng.split(streams::kTrain);
  {
    obs::TraceScope span("node.train_local", &train_timing());
    data::TrainConfig training = config_.training;
    training.kernel_pool = context.kernel_pool;
    data::train_local(model, user.train, training, train_rng);
  }

  // Publishing-side transforms: the node validates exactly what it would
  // broadcast, so sanitized/compressed payloads face the same gate.
  nn::ParamVector outgoing = model.get_parameters();
  if (config_.use_dp) {
    Rng dp_rng = context.rng.split(streams::kDp);
    outgoing = nn::dp_sanitize(outgoing, averaged, config_.dp, dp_rng);
  }
  if (config_.quantize_payloads) {
    outgoing = nn::quantize_roundtrip(outgoing);
  }

  // if ValidationLoss(w_new) < ValidationLoss(w_r): Broadcast(w_new)
  obs::TraceScope validate_span("node.validate", &validate_timing());
  // One group fuses the publish gate's two forwards. The outgoing
  // parameters have no payload identity yet — keyless, so uncached. The
  // reference average is identified by its ordered payload list, so its
  // loss caches across steps and rounds.
  const std::array<EvalRequest, 2> requests{
      EvalRequest{outgoing, std::nullopt},
      EvalRequest{reference.params, ParamsKey{reference.payloads}}};
  const std::vector<EvalOutcome> outcomes =
      context.eval.evaluate_many(requests, *prepared, context.kernel_pool);
  const double new_loss = outcomes[0].result.loss;
  const double reference_loss = outcomes[1].result.loss;
  if (new_loss >= reference_loss) {
    suppressed_no_improvement_counter().increment();
    return std::nullopt;
  }

  published_counter().increment();
  return PublishRequest{parents, std::move(outgoing)};
}

std::optional<PublishRequest> RandomPoisonNode::step(
    NodeContext& context, const data::UserData& user) {
  (void)user;
  // Attach to tips chosen by the regular walk so the poison is picked up
  // by honest tip selection, then submit N(0,1) parameters.
  Rng walk_rng = context.rng.split(streams::kWalk);
  const std::size_t tips = std::max<std::size_t>(1, config_.num_tips);
  std::vector<tangle::TxIndex> parents =
      tangle::select_tips(context.cones, tips, walk_rng, config_.tip_selection);

  nn::Model model = context.factory();
  nn::ParamVector params(model.parameter_count());
  Rng noise_rng = context.rng.split(streams::kPoisonNoise);
  for (auto& p : params) p = static_cast<float>(noise_rng.normal());
  return PublishRequest{std::move(parents), std::move(params)};
}

std::optional<PublishRequest> BackdoorNode::step(
    NodeContext& context, const data::UserData& user) {
  if (user.train.empty()) return std::nullopt;

  // Blend in with regular tip selection so the poisoned branch looks like
  // any other.
  Rng walk_rng = context.rng.split(streams::kWalk);
  const std::size_t tips = std::max<std::size_t>(1, config_.num_tips);
  std::vector<tangle::TxIndex> parents =
      tangle::select_tips(context.cones, tips, walk_rng, config_.tip_selection);
  std::vector<const nn::ParamVector*> parent_params;
  parent_params.reserve(parents.size());
  for (const tangle::TxIndex p : parents) {
    parent_params.push_back(
        &context.store.get(context.view.tangle().transaction(p).payload));
  }
  const nn::ParamVector base = nn::average_params(parent_params);

  // Train on the half-poisoned local dataset.
  Rng poison_rng = context.rng.split(streams::kBackdoorData);
  const data::DataSplit poisoned = data::make_backdoor_train_split(
      user.train, trigger_, poison_fraction_, poison_rng);
  nn::Model model = context.factory();
  model.set_parameters(base);
  Rng train_rng = context.rng.split(streams::kTrain);
  data::TrainConfig training = config_.training;
  training.kernel_pool = context.kernel_pool;
  data::train_local(model, poisoned, training, train_rng);

  // Model replacement: boost the update so it dominates future averages,
  // and publish unconditionally (the attacker ignores the validation gate).
  nn::ParamVector boosted = model.get_parameters();
  for (std::size_t i = 0; i < boosted.size(); ++i) {
    boosted[i] = base[i] + static_cast<float>(boost_) * (boosted[i] - base[i]);
  }
  return PublishRequest{std::move(parents), std::move(boosted)};
}

std::optional<PublishRequest> LabelFlipNode::step(
    NodeContext& context, const data::UserData& poisoned_user) {
  // A flip node whose local data holds no source-class samples has nothing
  // to poison with and abstains.
  if (poisoned_user.train.empty()) return std::nullopt;
  return honest_.step(context, poisoned_user);
}

}  // namespace tanglefl::core
