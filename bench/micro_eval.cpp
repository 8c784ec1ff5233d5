// Micro-benchmarks for the evaluation path: the per-probe cost Algorithm 2
// and the Section III-E defence pay for every loss lookup. Cold = the
// pre-engine path (factory() + set_parameters + data::evaluate per probe);
// Pooled = a keyless single-request evaluate_many group (pooled model +
// pre-batched split); CacheHit = a keyed single-request group whose
// (params, split) result is already cached.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <vector>

#include "core/eval_engine.hpp"
#include "data/femnist_synth.hpp"
#include "data/training.hpp"
#include "nn/model_zoo.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace tanglefl;

struct EvalFixture {
  nn::ModelFactory factory;
  nn::ParamVector params;
  data::DataSplit split;
};

// FEMNIST shape: 28x28 grayscale, 62 classes (Table I).
EvalFixture make_cnn_fixture(std::size_t samples) {
  EvalFixture fixture;
  fixture.factory = [] {
    nn::ImageCnnConfig config;
    config.image_size = 28;
    config.num_classes = 62;
    return nn::make_image_cnn(config);
  };
  nn::Model model = fixture.factory();
  Rng rng(1);
  model.init(rng);
  fixture.params = model.get_parameters();
  fixture.split.features = nn::Tensor({samples, 1, 28, 28});
  for (auto& v : fixture.split.features.values()) {
    v = static_cast<float>(rng.normal());
  }
  fixture.split.labels.resize(samples);
  for (auto& l : fixture.split.labels) {
    l = static_cast<std::int32_t>(rng.uniform_index(62));
  }
  return fixture;
}

// Shakespeare shape: sequence 80, vocab 80, hidden 256 (Table I).
EvalFixture make_lstm_fixture(std::size_t samples) {
  EvalFixture fixture;
  fixture.factory = [] {
    nn::CharLstmConfig config;
    config.vocab_size = 80;
    config.seq_length = 80;
    config.embedding_dim = 8;
    config.hidden_dim = 256;
    return nn::make_char_lstm(config);
  };
  nn::Model model = fixture.factory();
  Rng rng(1);
  model.init(rng);
  fixture.params = model.get_parameters();
  fixture.split.features = nn::Tensor({samples, 80});
  for (auto& v : fixture.split.features.values()) {
    v = static_cast<float>(rng.uniform_index(80));
  }
  fixture.split.labels.resize(samples);
  for (auto& l : fixture.split.labels) {
    l = static_cast<std::int32_t>(rng.uniform_index(80));
  }
  return fixture;
}

EvalFixture make_fixture(bool lstm, std::size_t samples) {
  return lstm ? make_lstm_fixture(samples) : make_cnn_fixture(samples);
}

// The pre-engine probe: a fresh model instance and per-batch gathers each
// iteration: the data::evaluate reference the engine's results match.
void params_loss_cold_loop(benchmark::State& state, bool lstm) {
  const EvalFixture fixture = make_fixture(lstm, 64);
  for (auto _ : state) {
    nn::Model model = fixture.factory();
    model.set_parameters(fixture.params);
    const data::EvalResult result = data::evaluate(model, fixture.split);
    benchmark::DoNotOptimize(result.loss);
  }
}

void BM_ParamsLossColdCNN(benchmark::State& state) {
  params_loss_cold_loop(state, /*lstm=*/false);
}
BENCHMARK(BM_ParamsLossColdCNN)->Unit(benchmark::kMillisecond);

void BM_ParamsLossColdLSTM(benchmark::State& state) {
  params_loss_cold_loop(state, /*lstm=*/true);
}
BENCHMARK(BM_ParamsLossColdLSTM)->Unit(benchmark::kMillisecond);

// Engine probe without cache reuse: pooled model instance + pre-batched
// split, but a full forward sweep per iteration (a keyless request is never
// cached, so every probe pays its forwards, isolating the pool + batching
// win).
void params_loss_pooled_loop(benchmark::State& state, bool lstm) {
  const EvalFixture fixture = make_fixture(lstm, 64);
  core::EvalEngine engine(fixture.factory);
  const auto prepared = engine.prepare(fixture.split);
  const core::EvalRequest request{fixture.params, std::nullopt};
  for (auto _ : state) {
    const core::EvalOutcome outcome =
        engine.evaluate_many({&request, 1}, *prepared).front();
    benchmark::DoNotOptimize(outcome.result.loss);
  }
}

void BM_ParamsLossPooledCNN(benchmark::State& state) {
  params_loss_pooled_loop(state, /*lstm=*/false);
}
BENCHMARK(BM_ParamsLossPooledCNN)->Unit(benchmark::kMillisecond);

void BM_ParamsLossPooledLSTM(benchmark::State& state) {
  params_loss_pooled_loop(state, /*lstm=*/true);
}
BENCHMARK(BM_ParamsLossPooledLSTM)->Unit(benchmark::kMillisecond);

// Warm probe: the (params, split) result is already cached, so the probe
// costs one sharded map lookup — the robust-mode steady state where most
// candidate tips were already scored in earlier rounds.
void eval_cache_hit_loop(benchmark::State& state, bool lstm) {
  const EvalFixture fixture = make_fixture(lstm, 64);
  core::EvalEngine engine(fixture.factory);
  const auto prepared = engine.prepare(fixture.split);
  const core::EvalRequest request{fixture.params, core::ParamsKey{{42}}};
  engine.evaluate_many({&request, 1}, *prepared);  // warm the cache
  for (auto _ : state) {
    const core::EvalOutcome outcome =
        engine.evaluate_many({&request, 1}, *prepared).front();
    benchmark::DoNotOptimize(outcome.result.loss);
  }
}

void BM_EvalCacheHitCNN(benchmark::State& state) {
  eval_cache_hit_loop(state, /*lstm=*/false);
}
BENCHMARK(BM_EvalCacheHitCNN);

void BM_EvalCacheHitLSTM(benchmark::State& state) {
  eval_cache_hit_loop(state, /*lstm=*/true);
}
BENCHMARK(BM_EvalCacheHitLSTM);

// ------------------------------------------------------- multi-model probes
//
// Robust tip selection's per-step workload: k same-architecture candidate
// models scored on the paper CNN shape. Cold is the pre-engine path per
// candidate; SerialMiss is one single-request group per candidate; Fused
// is one evaluate_many group, which gathers each batch's conv input
// straight into GEMM panels once for all k models and drives the
// k×batches grid through a kernel ThreadPool. The engine
// requests are keyless, so they are never cached and every iteration pays
// its forwards. All three produce bit-identical losses.

std::vector<nn::ParamVector> make_candidates(const EvalFixture& fixture,
                                             std::size_t k) {
  std::vector<nn::ParamVector> candidates(k, fixture.params);
  Rng rng(7);
  for (auto& params : candidates) {
    for (auto& v : params) v += 0.01f * static_cast<float>(rng.normal());
  }
  return candidates;
}

void BM_MultiEvalCold(benchmark::State& state) {
  const EvalFixture fixture = make_cnn_fixture(64);
  const auto candidates =
      make_candidates(fixture, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& params : candidates) {
      nn::Model model = fixture.factory();
      model.set_parameters(params);
      sum += data::evaluate(model, fixture.split).loss;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_MultiEvalCold)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_MultiEvalSerialMiss(benchmark::State& state) {
  const EvalFixture fixture = make_cnn_fixture(64);
  const auto candidates =
      make_candidates(fixture, static_cast<std::size_t>(state.range(0)));
  core::EvalEngine engine(fixture.factory);
  const auto prepared = engine.prepare(fixture.split);
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& params : candidates) {
      const core::EvalRequest request{params, std::nullopt};
      sum += engine.evaluate_many({&request, 1}, *prepared).front().result.loss;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_MultiEvalSerialMiss)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_MultiEvalFused(benchmark::State& state) {
  const EvalFixture fixture = make_cnn_fixture(64);
  const auto candidates =
      make_candidates(fixture, static_cast<std::size_t>(state.range(0)));
  core::EvalEngine engine(fixture.factory);
  const auto prepared = engine.prepare(fixture.split);
  ThreadPool pool;  // hardware concurrency, as the sim harness kernel pool
  std::vector<core::EvalRequest> requests(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    requests[i].params = candidates[i];
  }
  for (auto _ : state) {
    double sum = 0.0;
    const std::vector<core::EvalOutcome> outcomes =
        engine.evaluate_many(requests, *prepared, &pool);
    for (const core::EvalOutcome& outcome : outcomes) {
      sum += outcome.result.loss;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_MultiEvalFused)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------- consensus eval
//
// The perfbench femnist_robust consensus evaluation: one reference model
// scored on the pooled test data of all 500 writers (3,036 12x12 samples,
// 48 batches) as a lone keyless request. Arg = round-pool workers: 0 runs
// the grid serially; 2 spreads its batches over the workers and the
// calling thread, as the engine does at the round barrier.

void BM_ConsensusEval(benchmark::State& state) {
  data::FemnistSynthConfig config;
  config.num_users = 500;
  config.image_size = 12;
  config.mean_samples_per_user = 25.0;
  config.seed = 1;
  const data::FederatedDataset dataset = data::make_femnist_synth(config);
  std::vector<std::size_t> users(dataset.num_users());
  std::iota(users.begin(), users.end(), std::size_t{0});
  const data::DataSplit pooled = dataset.pooled_test(users);

  nn::ImageCnnConfig model_config;
  model_config.image_size = config.image_size;
  model_config.num_classes = config.num_classes;
  const nn::ModelFactory factory = [model_config] {
    return nn::make_image_cnn(model_config);
  };
  nn::Model model = factory();
  Rng rng(1);
  model.init(rng);
  const nn::ParamVector params = model.get_parameters();

  core::EvalEngine engine(factory);
  const auto prepared = engine.prepare(pooled);
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool =
      workers > 0 ? std::make_unique<ThreadPool>(workers) : nullptr;
  const core::EvalRequest request{params, std::nullopt};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.evaluate_many({&request, 1}, *prepared, pool.get())
            .front()
            .result.loss);
  }
  state.counters["samples"] = static_cast<double>(pooled.size());
}
BENCHMARK(BM_ConsensusEval)
    ->Arg(0)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// google-benchmark rejects unrecognized flags, so the run manifest is
// requested through the environment instead: set TANGLEFL_METRICS_JSON to a
// path to enable domain-metric timing and write the manifest there.
int main(int argc, char** argv) {
  const char* manifest_path = std::getenv("TANGLEFL_METRICS_JSON");
  if (manifest_path != nullptr && *manifest_path != '\0') {
    tanglefl::obs::MetricsRegistry::global().reset();
    tanglefl::obs::set_timing_enabled(true);
  }
  tanglefl::Stopwatch total;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (manifest_path != nullptr && *manifest_path != '\0') {
    tanglefl::obs::RunManifest manifest;
    manifest.name = "micro_eval";
    manifest.total_seconds = total.seconds();
    const auto snapshot = tanglefl::obs::MetricsRegistry::global().snapshot(
        tanglefl::obs::SnapshotKind::kFull);
    if (!tanglefl::obs::write_manifest(manifest_path, manifest, snapshot)) {
      std::fprintf(stderr, "failed to write run manifest %s\n",
                   manifest_path);
      return 1;
    }
  }
  return 0;
}
