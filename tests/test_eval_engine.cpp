// Tests for the shared evaluation engine (core/eval_engine): content-keyed
// split identity, cached and fused evaluation bit-exact against
// data::evaluate on a fresh model, model pooling under concurrent probes,
// and end-to-end byte-identity of the simulation across thread counts.
#include "core/eval_engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/async_simulation.hpp"
#include "core/gossip_simulation.hpp"
#include "core/node.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "node_harness.hpp"
#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"
#include "tangle/model_store.hpp"

namespace tanglefl::core {
namespace {

using tangle::ModelStore;
using tangle::Tangle;
using tangle::TxIndex;

data::DataSplit make_split(std::size_t n, std::uint64_t seed,
                           std::int32_t classes = 2) {
  Rng rng(seed);
  data::DataSplit split;
  split.features = nn::Tensor({n, 2});
  split.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    split.features.at(i, 0) = static_cast<float>(rng.normal());
    split.features.at(i, 1) = static_cast<float>(rng.normal());
    split.labels[i] =
        static_cast<std::int32_t>(rng.uniform_index(
            static_cast<std::uint64_t>(classes)));
  }
  return split;
}

nn::ModelFactory mlp_factory() {
  return [] { return nn::make_mlp(2, 6, 2); };
}

nn::ParamVector random_params(const nn::ModelFactory& factory,
                              std::uint64_t seed) {
  nn::Model model = factory();
  Rng rng(seed);
  model.init(rng);
  return model.get_parameters();
}

// Evaluates `request` as a group of one, the path every lone probe takes.
EvalOutcome evaluate_one(EvalEngine& engine, const EvalRequest& request,
                         const BatchedSplit& batched,
                         ThreadPool* pool = nullptr) {
  return engine.evaluate_many({&request, 1}, batched, pool).front();
}

TEST(EvalEngine, SplitKeyIsContentIdentity) {
  EvalEngine engine(mlp_factory());
  const data::DataSplit split = make_split(30, 5);
  data::DataSplit copy = split;  // distinct object, identical contents

  const auto a = engine.prepare(split);
  const auto b = engine.prepare(copy);
  EXPECT_EQ(a.get(), b.get());  // reused by content, not by address
  EXPECT_EQ(a->key(), b->key());
  EXPECT_EQ(engine.cached_splits(), 1u);

  copy.features.at(0, 0) += 1.0f;
  const auto c = engine.prepare(copy);
  EXPECT_NE(a.get(), c.get());
  EXPECT_FALSE(a->key() == c->key());

  data::DataSplit relabeled = split;
  relabeled.labels[0] = 1 - relabeled.labels[0];
  const auto d = engine.prepare(relabeled);
  EXPECT_NE(a.get(), d.get());
  EXPECT_FALSE(a->key() == d->key());
  EXPECT_EQ(engine.cached_splits(), 3u);
}

TEST(EvalEngine, EvaluateMatchesDataEvaluateBitwise) {
  // 150 samples -> batches of 64, 64, 22: exercises the partial tail batch
  // and the per-batch mean-times-count accumulation order.
  EvalEngine engine(mlp_factory());
  const data::DataSplit split = make_split(150, 11);
  const auto prepared = engine.prepare(split);
  ASSERT_EQ(prepared->samples(), 150u);
  ASSERT_EQ(prepared->batch_count(), 3u);

  nn::Model model = mlp_factory()();
  Rng rng(21);
  model.init(rng);

  const data::EvalResult direct = data::evaluate(model, split);
  const nn::ParamVector params = model.get_parameters();
  const data::EvalResult pooled =
      evaluate_one(engine, EvalRequest{params, std::nullopt}, *prepared)
          .result;
  EXPECT_EQ(direct.loss, pooled.loss);  // bitwise, not approximate
  EXPECT_EQ(direct.accuracy, pooled.accuracy);
}

TEST(EvalEngine, PayloadEvalCachesAcrossProbesAndDedupedPayloads) {
  EvalEngine engine(mlp_factory());
  ModelStore store;
  const nn::ParamVector params = random_params(mlp_factory(), 7);
  const auto first = store.add(params);
  const auto duplicate = store.add(params);  // content-deduplicated
  ASSERT_EQ(first.id, duplicate.id);

  const data::DataSplit split = make_split(40, 13);
  const auto prepared = engine.prepare(split);

  const auto probe = [&](tangle::PayloadId id, const BatchedSplit& batched) {
    return engine.payloads_eval_many(store, {&id, 1}, batched).front();
  };
  const EvalOutcome miss = probe(first.id, *prepared);
  EXPECT_FALSE(miss.cache_hit);
  const EvalOutcome hit = probe(duplicate.id, *prepared);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(miss.result.loss, hit.result.loss);
  EXPECT_EQ(miss.result.accuracy, hit.result.accuracy);
  EXPECT_EQ(engine.cached_results(), 1u);

  // Same payload on a different split is a distinct cache entry.
  const auto other = engine.prepare(make_split(40, 14));
  EXPECT_FALSE(probe(first.id, *other).cache_hit);
  EXPECT_EQ(engine.cached_results(), 2u);
  // Sequential probes reuse a single pooled instance.
  EXPECT_EQ(engine.models_created(), 1u);
}

TEST(EvalEngine, ParamsEvalKeyedByOrderedPayloadList) {
  EvalEngine engine(mlp_factory());
  ModelStore store;
  const auto a = store.add(random_params(mlp_factory(), 31));
  const auto b = store.add(random_params(mlp_factory(), 32));
  const std::vector<const nn::ParamVector*> pointers = {&store.get(a.id),
                                                        &store.get(b.id)};
  const nn::ParamVector averaged = nn::average_params(pointers);

  const data::DataSplit split = make_split(50, 15);
  const auto prepared = engine.prepare(split);

  const EvalRequest request{averaged, ParamsKey{{a.id, b.id}}};
  const EvalOutcome miss = evaluate_one(engine, request, *prepared);
  EXPECT_FALSE(miss.cache_hit);
  const EvalOutcome hit = evaluate_one(engine, request, *prepared);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(miss.result.loss, hit.result.loss);

  // The reversed list is a different identity (average_params is order-
  // sensitive in float arithmetic only by convention; the key is exact).
  const EvalOutcome reversed = evaluate_one(
      engine, EvalRequest{averaged, ParamsKey{{b.id, a.id}}}, *prepared);
  EXPECT_FALSE(reversed.cache_hit);

  // The cached value equals the direct uncached computation bitwise.
  nn::Model model = mlp_factory()();
  model.set_parameters(averaged);
  const data::EvalResult direct = data::evaluate(model, split);
  EXPECT_EQ(hit.result.loss, direct.loss);
  EXPECT_EQ(hit.result.accuracy, direct.accuracy);
}

TEST(EvalEngine, ParamsKeyCachesPayloadHash) {
  const ParamsKey a{{1, 2, 3}};
  const ParamsKey b{{1, 2, 3}};
  const ParamsKey c{{3, 2, 1}};
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());  // order-sensitive, like the identity
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(ParamsKey::single(7).payloads(), (std::vector<tangle::PayloadId>{7}));
}

// An image split matching small_factory()'s 8x8 single-channel input, so
// evaluate_many exercises the fused conv path (shared input packs).
data::DataSplit make_image_split(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::DataSplit split;
  split.features = nn::Tensor({n, 1, 8, 8});
  for (auto& v : split.features.values()) {
    v = static_cast<float>(rng.normal());
  }
  split.labels.resize(n);
  for (auto& l : split.labels) {
    l = static_cast<std::int32_t>(rng.uniform_index(3));
  }
  return split;
}

nn::ModelFactory conv_factory() {
  return [] {
    nn::ImageCnnConfig config;
    config.image_size = 8;
    config.num_classes = 3;
    config.conv1_channels = 2;
    config.conv2_channels = 4;
    config.hidden = 8;
    return nn::make_image_cnn(config);
  };
}

TEST(EvalEngine, EvaluateManyMatchesPerModelEvaluateBitExactly) {
  // CNN stack: the group runs the fused pass (shared conv input packs,
  // grid on a kernel pool). 150 samples -> batches of 64/64/22, so the
  // per-model reduction crosses a partial tail batch.
  const nn::ModelFactory factory = conv_factory();
  EvalEngine engine(factory);
  const data::DataSplit split = make_image_split(150, 71);
  const auto prepared = engine.prepare(split);

  ModelStore store;
  std::vector<tangle::PayloadId> ids;
  for (std::size_t i = 0; i < 5; ++i) {
    ids.push_back(store.add(random_params(factory, 300 + i)).id);
  }

  std::vector<data::EvalResult> expected;
  for (const tangle::PayloadId id : ids) {
    nn::Model model = factory();
    model.set_parameters(store.get(id));
    expected.push_back(data::evaluate(model, split));
  }

  ThreadPool pool(3);
  const std::vector<EvalOutcome> outcomes =
      engine.payloads_eval_many(store, ids, *prepared, &pool);
  ASSERT_EQ(outcomes.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_FALSE(outcomes[i].cache_hit);
    EXPECT_EQ(outcomes[i].result.loss, expected[i].loss);  // bitwise
    EXPECT_EQ(outcomes[i].result.accuracy, expected[i].accuracy);
    EXPECT_EQ(outcomes[i].result.samples, expected[i].samples);
  }

  // A repeat group resolves entirely from the cache.
  const std::vector<EvalOutcome> again =
      engine.payloads_eval_many(store, ids, *prepared, &pool);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(again[i].cache_hit);
    EXPECT_EQ(again[i].result.loss, expected[i].loss);
  }
}

TEST(EvalEngine, SingleRequestConvGroupMatchesDataEvaluateBitwise) {
  // A lone model runs the same fused grid as k models: its conv input is
  // gathered into GEMM panels and the rest of the stack runs from layer 1.
  // 150 samples -> batches of 64/64/22, serial and on a kernel pool.
  const nn::ModelFactory factory = conv_factory();
  EvalEngine engine(factory);
  const data::DataSplit split = make_image_split(150, 74);
  const auto prepared = engine.prepare(split);
  ASSERT_EQ(prepared->batch_count(), 3u);

  ThreadPool pool(3);
  for (ThreadPool* kernel_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const nn::ParamVector params = random_params(factory, 600);
    nn::Model model = factory();
    model.set_parameters(params);
    const data::EvalResult direct = data::evaluate(model, split);
    const EvalOutcome outcome = evaluate_one(
        engine, EvalRequest{params, std::nullopt}, *prepared, kernel_pool);
    EXPECT_FALSE(outcome.cache_hit);
    EXPECT_EQ(outcome.result.loss, direct.loss);  // bitwise
    EXPECT_EQ(outcome.result.accuracy, direct.accuracy);
    EXPECT_EQ(outcome.result.samples, direct.samples);
  }
}

TEST(EvalEngine, EvaluateManyNonConvStackMatchesBitExactly) {
  // MLP stack: no conv to fuse, so the group takes the per-model grid
  // fallback — results must still match the standalone path bitwise.
  EvalEngine engine(mlp_factory());
  const data::DataSplit split = make_split(150, 72);
  const auto prepared = engine.prepare(split);
  ModelStore store;
  std::vector<tangle::PayloadId> ids;
  for (std::size_t i = 0; i < 4; ++i) {
    ids.push_back(store.add(random_params(mlp_factory(), 400 + i)).id);
  }
  const std::vector<EvalOutcome> outcomes =
      engine.payloads_eval_many(store, ids, *prepared, nullptr);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    nn::Model model = mlp_factory()();
    model.set_parameters(store.get(ids[i]));
    const data::EvalResult direct = data::evaluate(model, split);
    EXPECT_FALSE(outcomes[i].cache_hit);
    EXPECT_EQ(outcomes[i].result.loss, direct.loss);
    EXPECT_EQ(outcomes[i].result.accuracy, direct.accuracy);
  }
}

TEST(EvalEngine, EvaluateManyCacheInterleavings) {
  const nn::ModelFactory factory = conv_factory();
  EvalEngine engine(factory);
  const data::DataSplit split = make_image_split(90, 73);
  const auto prepared = engine.prepare(split);
  ModelStore store;
  const auto warm = store.add(random_params(factory, 500));
  const auto cold = store.add(random_params(factory, 501));
  const nn::ParamVector fresh = random_params(factory, 502);

  evaluate_one(engine,
               EvalRequest{store.get(warm.id), ParamsKey::single(warm.id)},
               *prepared);  // pre-warm one key
  ASSERT_EQ(engine.cached_results(), 1u);

  // Group mixing: a cached key, a missing key, an in-group duplicate of
  // that missing key, and a keyless request.
  const std::vector<EvalRequest> requests{
      EvalRequest{store.get(warm.id), ParamsKey::single(warm.id)},
      EvalRequest{store.get(cold.id), ParamsKey::single(cold.id)},
      EvalRequest{store.get(cold.id), ParamsKey::single(cold.id)},
      EvalRequest{fresh, std::nullopt},
  };
  const std::vector<EvalOutcome> outcomes =
      engine.evaluate_many(requests, *prepared, nullptr);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].cache_hit);
  EXPECT_FALSE(outcomes[1].cache_hit);  // first occurrence pays the eval
  EXPECT_TRUE(outcomes[2].cache_hit);   // duplicate resolves against it
  EXPECT_FALSE(outcomes[3].cache_hit);  // keyless: always evaluated
  EXPECT_EQ(outcomes[1].result.loss, outcomes[2].result.loss);

  // Bit-exact against the standalone path for every distinct probe.
  for (const auto& [params, expected_index] :
       std::vector<std::pair<std::span<const float>, std::size_t>>{
           {store.get(warm.id), 0}, {store.get(cold.id), 1}, {fresh, 3}}) {
    nn::Model model = factory();
    model.set_parameters(params);
    const data::EvalResult direct = data::evaluate(model, split);
    EXPECT_EQ(outcomes[expected_index].result.loss, direct.loss);
    EXPECT_EQ(outcomes[expected_index].result.accuracy, direct.accuracy);
  }

  // The keyless result was not cached; the duplicate added one entry.
  EXPECT_EQ(engine.cached_results(), 2u);
}

TEST(EvalEngine, PoolReusesInstancesUnderParallelFor) {
  // Keyless probes are never cached, so every one runs a forward pass and
  // needs a model. parallel_for runs at most (workers + caller) lanes, so
  // the pool must not create more instances than that — and far fewer than
  // probes.
  EvalEngine engine(mlp_factory());
  ModelStore store;
  constexpr std::size_t kPayloads = 8;
  std::vector<tangle::PayloadId> ids;
  for (std::size_t i = 0; i < kPayloads; ++i) {
    ids.push_back(store.add(random_params(mlp_factory(), 100 + i)).id);
  }
  const data::DataSplit split = make_split(60, 17);
  const auto prepared = engine.prepare(split);

  std::vector<double> expected(kPayloads);
  for (std::size_t i = 0; i < kPayloads; ++i) {
    nn::Model model = mlp_factory()();
    model.set_parameters(store.get(ids[i]));
    expected[i] = data::evaluate(model, split).loss;
  }

  constexpr std::size_t kProbes = 64;
  std::vector<double> losses(kProbes, 0.0);
  ThreadPool pool(3);
  pool.parallel_for(kProbes, [&](std::size_t i) {
      losses[i] = evaluate_one(engine,
                             EvalRequest{store.get(ids[i % kPayloads]),
                                         std::nullopt},
                             *prepared)
                    .result.loss;
  });
  for (std::size_t i = 0; i < kProbes; ++i) {
    EXPECT_EQ(losses[i], expected[i % kPayloads]) << "probe " << i;
  }
  EXPECT_LE(engine.models_created(), 4u);  // 3 workers + the caller lane
  EXPECT_EQ(engine.pool_size(), engine.models_created());  // all returned
  EXPECT_EQ(engine.cached_results(), 0u);  // keyless: nothing cached
}

TEST(EvalEngine, SplitLruEvictsOverBudgetAndKeepsOutstandingEntries) {
  const data::DataSplit split_a = make_split(64, 101);
  const data::DataSplit split_b = make_split(64, 102);
  const data::DataSplit split_c = make_split(64, 103);

  // All three splits have the same shape, hence the same retained bytes;
  // a budget of exactly two of them makes the third insert evict the LRU.
  std::size_t bytes_per = 0;
  {
    EvalEngine probe(mlp_factory());
    bytes_per = probe.prepare(split_a)->bytes();
  }
  ASSERT_GT(bytes_per, 0u);
  EvalEngine engine(mlp_factory(), /*batched_budget_bytes=*/2 * bytes_per);

  const auto a = engine.prepare(split_a);
  const auto b = engine.prepare(split_b);
  EXPECT_EQ(engine.cached_splits(), 2u);
  EXPECT_EQ(engine.prepare(split_a).get(), a.get());  // refresh a's LRU tick
  const auto c = engine.prepare(split_c);             // over budget: b evicted
  EXPECT_EQ(engine.cached_splits(), 2u);

  // a was refreshed and survived; b was the LRU and is gone (a re-prepare
  // rebuilds a distinct instance — `b` is still alive, so the address
  // cannot be reused).
  EXPECT_EQ(engine.prepare(split_a).get(), a.get());
  EXPECT_NE(engine.prepare(split_b).get(), b.get());

  // Regression for the eviction restructure: an outstanding reference to
  // the evicted BatchedSplit stays fully usable (eviction only drops the
  // cache's reference; destruction is deferred past the lock), and
  // evaluating through it is still bit-exact.
  nn::Model model = mlp_factory()();
  Rng rng(33);
  model.init(rng);
  const data::EvalResult direct = data::evaluate(model, split_b);
  const nn::ParamVector params = model.get_parameters();
  const data::EvalResult via_evicted =
      evaluate_one(engine, EvalRequest{params, std::nullopt}, *b).result;
  EXPECT_EQ(direct.loss, via_evicted.loss);
  EXPECT_EQ(direct.accuracy, via_evicted.accuracy);
  (void)c;
}

// --- end-to-end byte-identity -------------------------------------------

data::FederatedDataset small_dataset() {
  data::FemnistSynthConfig config;
  config.num_users = 10;
  config.num_classes = 3;
  config.image_size = 8;
  config.mean_samples_per_user = 15.0;
  config.seed = 3;
  return data::make_femnist_synth(config);
}

nn::ModelFactory small_factory() {
  nn::ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.conv1_channels = 2;
  config.conv2_channels = 4;
  config.hidden = 8;
  return [config] { return nn::make_image_cnn(config); };
}

void expect_identical_runs(const Tangle& tangle_a, const Tangle& tangle_b,
                           const RunResult& a, const RunResult& b) {
  ASSERT_EQ(tangle_a.size(), tangle_b.size());
  for (TxIndex i = 0; i < tangle_a.size(); ++i) {
    EXPECT_EQ(to_hex(tangle_a.transaction(i).id),
              to_hex(tangle_b.transaction(i).id));
  }
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const RoundRecord& ra = a.history[i];
    const RoundRecord& rb = b.history[i];
    EXPECT_EQ(ra.round, rb.round);
    EXPECT_EQ(ra.accuracy, rb.accuracy);  // bitwise
    EXPECT_EQ(ra.loss, rb.loss);
    EXPECT_EQ(ra.target_misclassification, rb.target_misclassification);
    EXPECT_EQ(ra.backdoor_success, rb.backdoor_success);
    EXPECT_EQ(ra.tangle_size, rb.tangle_size);
    EXPECT_EQ(ra.tip_count, rb.tip_count);
    EXPECT_EQ(ra.publish_rate, rb.publish_rate);
    EXPECT_EQ(ra.published_cumulative, rb.published_cumulative);
    EXPECT_EQ(ra.suppressed_cumulative, rb.suppressed_cumulative);
    EXPECT_EQ(ra.ledger_bytes, rb.ledger_bytes);
  }
}

TEST(EvalEngine, SimulationByteIdenticalAcrossKernelThreads) {
  // Batched candidate probes must not perturb a single bit of the run,
  // regardless of the kernel pool driving the fused grid. Every
  // kernel_threads value is compared against the single-threaded baseline.
  const auto dataset = small_dataset();
  SimulationConfig base;
  base.rounds = 4;
  base.nodes_per_round = 4;
  base.eval_every = 2;
  base.eval_nodes_fraction = 0.5;
  base.node.training.epochs = 1;
  base.node.training.sgd.learning_rate = 0.05;
  base.node.num_tips = 2;
  base.node.tip_sample_size = 4;
  base.seed = 1;

  std::vector<std::unique_ptr<TangleSimulation>> sims;
  std::vector<RunResult> results;
  for (const std::size_t kernel_threads : {1, 2, 4}) {
    SimulationConfig config = base;
    config.kernel_threads = kernel_threads;
    sims.push_back(
        std::make_unique<TangleSimulation>(dataset, small_factory(), config));
    results.push_back(sims.back()->run());
  }
  for (std::size_t i = 1; i < sims.size(); ++i) {
    expect_identical_runs(sims[0]->tangle(), sims[i]->tangle(), results[0],
                          results[i]);
  }
}

TEST(EvalEngine, SimulationByteIdenticalAcrossThreadCounts) {
  // The engine's sharded cache must not perturb determinism when node
  // steps probe it concurrently.
  const auto dataset = small_dataset();
  SimulationConfig one;
  one.rounds = 4;
  one.nodes_per_round = 4;
  one.eval_every = 2;
  one.eval_nodes_fraction = 0.5;
  one.node.training.epochs = 1;
  one.node.training.sgd.learning_rate = 0.05;
  one.node.num_tips = 2;
  one.node.tip_sample_size = 4;
  one.seed = 1;
  one.threads = 1;
  SimulationConfig four = one;
  four.threads = 4;

  TangleSimulation a(dataset, small_factory(), one);
  TangleSimulation b(dataset, small_factory(), four);
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  expect_identical_runs(a.tangle(), b.tangle(), ra, rb);
}

TEST(EvalEngine, NodeStepProbesReplayFromCache) {
  // Every loss probe of a node step goes through the engine. A repeat step
  // with the same stream publishes the same bits while its candidate and
  // reference probes all resolve from the cache; only the publish gate's
  // keyless fresh model costs forwards again.
  nn::ModelFactory factory = mlp_factory();
  ModelStore store;
  nn::Model genesis_model = factory();
  Rng genesis_rng(55);
  genesis_model.init(genesis_rng);
  const auto genesis = store.add(genesis_model.get_parameters());
  Tangle tangle(genesis.id, genesis.hash);
  const std::vector<TxIndex> genesis_parent = {0};
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto added = store.add(random_params(factory, 200 + i));
    tangle.add_transaction(genesis_parent, added.id, added.hash, i + 1);
  }

  data::UserData user;
  user.user_id = "probe";
  user.train = make_split(40, 61);
  user.test = make_split(20, 62);

  NodeConfig config;
  config.training.epochs = 2;
  config.training.sgd.learning_rate = 0.2;
  config.num_tips = 2;
  config.tip_sample_size = 4;
  HonestNode node(config);

  const tangle::TangleView view = tangle.view();
  NodeHarness harness(store, factory);
  obs::Counter& evaluated =
      obs::MetricsRegistry::global().counter("node.candidates.evaluated");
  obs::Counter& forwards =
      obs::MetricsRegistry::global().counter("eval.forwards");
  NodeContext first_context = harness.context(view, 5, 9);
  const auto first = node.step(first_context, user);
  const std::uint64_t evaluated_after_first = evaluated.value();
  const std::uint64_t forwards_after_first = forwards.value();
  NodeContext second_context = harness.context(view, 5, 9);
  const auto second = node.step(second_context, user);

  ASSERT_EQ(first.has_value(), second.has_value());
  if (first.has_value()) {
    EXPECT_EQ(first->parents, second->parents);
    EXPECT_EQ(first->params, second->params);  // bitwise ParamVector
  }
  EXPECT_EQ(evaluated.value(), evaluated_after_first);
  // One batch of 20 validation samples: the gate's fresh model is the only
  // forward the repeat step pays.
  EXPECT_EQ(forwards.value() - forwards_after_first, 1u);
}

}  // namespace
}  // namespace tanglefl::core
