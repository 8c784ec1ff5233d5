// Micro-benchmarks for the payload codec pipeline and the ModelStore:
// per-stage encode/decode throughput on realistic model-delta shapes, one
// round's publishes through the batch pipeline, and store insertion cost.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "nn/params.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"
#include "tangle/model_store.hpp"
#include "tangle/payload_codec.hpp"

namespace {

using namespace tanglefl;
using namespace tanglefl::tangle;

/// Base model plus a trained-looking update: small Gaussian deltas on a
/// fraction of coordinates, mirroring one node round of SGD on a shared
/// parent average.
struct PayloadFixture {
  nn::ParamVector base;
  nn::ParamVector params;

  explicit PayloadFixture(std::size_t n) : base(n), params(n) {
    Rng rng(7);
    for (std::size_t i = 0; i < n; ++i) {
      base[i] = static_cast<float>(rng.normal(0.0, 0.3));
      const bool touched = rng.bernoulli(0.3);
      params[i] =
          base[i] +
          (touched ? static_cast<float>(rng.normal(0.0, 0.01)) : 0.0f);
    }
  }
};

const std::vector<std::string>& codec_specs() {
  static const std::vector<std::string> specs = {
      "delta",
      "delta,entropy",
      "delta,quantize,entropy",
      "delta,topk:0.05,quantize,entropy",
  };
  return specs;
}

void BM_PayloadCodec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string& spec = codec_specs()[
      static_cast<std::size_t>(state.range(1))];
  const PayloadFixture fixture(n);
  const PayloadCodec codec(parse_codec_spec(spec));
  std::size_t encoded_bytes = 0;
  for (auto _ : state) {
    const EncodedPayload encoded = codec.encode(fixture.params, fixture.base);
    nn::ParamVector decoded = codec.decode(encoded, fixture.base);
    encoded_bytes = encoded.bytes.size();
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetLabel(spec);
  state.counters["encoded_bytes"] =
      benchmark::Counter(static_cast<double>(encoded_bytes));
  state.counters["ratio"] = benchmark::Counter(
      static_cast<double>(encoded_bytes) /
      static_cast<double>(n * sizeof(float)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_PayloadCodec)
    ->ArgsProduct({{4096, 33000}, {0, 1, 2, 3}});

/// One round of the femnist_codec workload's publishes: 5 payloads of the
/// FEMNIST CNN's 11,178 parameters, each a parent model with every
/// coordinate moved slightly, as SGD moves them. The parent sits in a
/// ledger, so the pipeline resolves it as the delta base.
struct PublishRound {
  static constexpr std::size_t kParams = 11178;
  static constexpr std::size_t kPublishes = 5;
  ModelStore store;
  Tangle tangle;
  std::vector<nn::ParamVector> payloads;
  std::vector<TxIndex> parents;

  PublishRound() : tangle(genesis(store)) {
    const nn::ParamVector& base = store.get(tangle.transaction(0).payload);
    Rng rng(11);
    for (std::size_t p = 0; p < kPublishes; ++p) {
      nn::ParamVector params(base);
      for (float& value : params) {
        value += static_cast<float>(rng.normal(0.0, 0.00001));
      }
      payloads.push_back(std::move(params));
    }
    parents = {tangle.genesis(), tangle.genesis()};
  }

  static Tangle genesis(ModelStore& store) {
    Rng rng(7);
    nn::ParamVector base(kParams);
    for (float& value : base) value = static_cast<float>(rng.normal(0.0, 0.1));
    const auto added = store.add(std::move(base));
    return Tangle(added.id, added.hash);
  }
};

/// The lossless default codec over one round's publishes as one batch:
/// serially (0 workers) or on a round pool of 2 workers plus the caller.
void BM_PublishBatch(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const PublishRound round;
  const PayloadPipeline pipeline(parse_codec_spec("default"));
  std::unique_ptr<ThreadPool> pool =
      workers > 0 ? std::make_unique<ThreadPool>(workers) : nullptr;
  std::vector<nn::ParamVector> payloads;
  std::vector<EncodedPayload> frames(PublishRound::kPublishes);
  std::vector<PipelinePublish> batch(PublishRound::kPublishes);
  for (auto _ : state) {
    payloads = round.payloads;
    for (std::size_t p = 0; p < batch.size(); ++p) {
      batch[p] = {&payloads[p], round.parents, &frames[p]};
    }
    pipeline.process(batch, round.tangle, round.store, pool.get());
    benchmark::DoNotOptimize(payloads.data());
    benchmark::ClobberMemory();
  }
  std::size_t encoded_bytes = 0;
  for (const EncodedPayload& frame : frames) encoded_bytes += frame.bytes.size();
  state.counters["ratio"] = benchmark::Counter(
      static_cast<double>(encoded_bytes) /
      static_cast<double>(PublishRound::kPublishes * PublishRound::kParams *
                          sizeof(float)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(PublishRound::kPublishes *
                                                    PublishRound::kParams *
                                                    sizeof(float)));
}
BENCHMARK(BM_PublishBatch)->Arg(0)->Arg(2)->UseRealTime();

/// Insert a stream of near-identical payloads (shared prefix, distinct
/// tail): whole-payload hashing plus one copy per insert.
void BM_FlatStore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PayloadFixture fixture(n);
  for (auto _ : state) {
    ModelStore store;
    for (std::size_t k = 0; k < 8; ++k) {
      nn::ParamVector params = fixture.params;
      params[n - 1] = static_cast<float>(k + 1);
      store.add(std::move(params));
    }
    benchmark::DoNotOptimize(store.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_FlatStore)->Arg(4096)->Arg(33000);

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
    manifest.name = "micro_codec";
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
