// Micro-benchmarks for the ledger substrate: tip selection walks, cone
// computations, confidence sampling and SHA-256 hashing.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/sha256.hpp"
#include "support/stopwatch.hpp"
#include "tangle/confidence.hpp"
#include "tangle/milestones.hpp"
#include "tangle/model_store.hpp"
#include "tangle/tip_selection.hpp"
#include "tangle/view_cache.hpp"

namespace {

using namespace tanglefl;
using namespace tanglefl::tangle;

/// Builds a tangle of `n` transactions grown with 2-parent random-walk
/// attachment over the (incremental) view cache, the structure and the
/// code path the simulation uses.
struct GrownTangle {
  ModelStore store;
  Tangle tangle;

  explicit GrownTangle(std::size_t n) : tangle(make_genesis(store)) {
    Rng rng(1);
    ViewCache cache(1);
    for (std::size_t i = 1; i < n; ++i) {
      const auto tips = select_tips(*cache.get(tangle.view()), 2, rng, {});
      const auto added =
          store.add({static_cast<float>(i), static_cast<float>(i % 7)});
      tangle.add_transaction(tips, added.id, added.hash,
                             /*round=*/1 + i / 8);
    }
  }

  static Tangle make_genesis(ModelStore& store) {
    const auto added = store.add({0.0f, 0.0f});
    return Tangle(added.id, added.hash);
  }
};

void BM_TangleGrowth(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    GrownTangle grown(n);
    benchmark::DoNotOptimize(grown.tangle.size());
  }
}
BENCHMARK(BM_TangleGrowth)->Arg(100)->Arg(400);

void BM_FutureConeSizes(benchmark::State& state) {
  GrownTangle grown(static_cast<std::size_t>(state.range(0)));
  const TangleView view = grown.tangle.view();
  for (auto _ : state) {
    auto cones = view.future_cone_sizes();
    benchmark::DoNotOptimize(cones.data());
  }
}
BENCHMARK(BM_FutureConeSizes)->Arg(200)->Arg(1000)->Arg(4000);

void BM_PastConeSizes(benchmark::State& state) {
  GrownTangle grown(static_cast<std::size_t>(state.range(0)));
  const TangleView view = grown.tangle.view();
  for (auto _ : state) {
    auto cones = view.past_cone_sizes();
    benchmark::DoNotOptimize(cones.data());
  }
}
BENCHMARK(BM_PastConeSizes)->Arg(200)->Arg(1000)->Arg(4000);

void BM_RandomWalkTip(benchmark::State& state) {
  GrownTangle grown(static_cast<std::size_t>(state.range(0)));
  const auto cones = ViewCacheEntry::build(grown.tangle.view());
  Rng rng(2);
  TipSelectionConfig config;
  config.alpha = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_walk_tip(*cones, rng, config));
  }
}
BENCHMARK(BM_RandomWalkTip)->Arg(200)->Arg(1000);

void BM_ViewCacheBuild(benchmark::State& state) {
  // Cold fill: both cone passes plus the tip set and CSR approver snapshot.
  // This is what one cache miss costs per view.
  GrownTangle grown(static_cast<std::size_t>(state.range(0)));
  const TangleView view = grown.tangle.view();
  for (auto _ : state) {
    auto entry = ViewCacheEntry::build(view);
    benchmark::DoNotOptimize(entry.get());
  }
}
BENCHMARK(BM_ViewCacheBuild)->Arg(200)->Arg(1000)->Arg(4000);

void BM_ViewCacheHit(benchmark::State& state) {
  // Warm hit: key comparison plus a shared_ptr copy. The cold/warm ratio is
  // the per-participant saving inside a round.
  GrownTangle grown(static_cast<std::size_t>(state.range(0)));
  const TangleView view = grown.tangle.view();
  ViewCache cache(4);
  (void)cache.get(view);  // prime
  for (auto _ : state) {
    auto entry = cache.get(view);
    benchmark::DoNotOptimize(entry.get());
  }
}
BENCHMARK(BM_ViewCacheHit)->Arg(200)->Arg(1000)->Arg(4000);

/// A ledger grown as the perfbench ledger_growth workload grows one: each
/// round λ = 8 transactions attach to two tips walked with bias `alpha`
/// over the round's prefix view (h = 1 round of delay), and every 8th
/// round advances the milestone floor with keep_recent = 512.
struct PrunedLedger {
  ModelStore store;
  Tangle tangle;
  ViewCache cache{4};
  MilestoneTracker pruner{{.enabled = true, .interval = 8, .keep_recent = 512}};
  Rng master{1};
  std::uint64_t round = 0;
  double alpha;

  explicit PrunedLedger(double walk_alpha = 0.0)
      : tangle(GrownTangle::make_genesis(store)), alpha(walk_alpha) {}

  /// The prefix view publishers of the next round see.
  TangleView next_round_view() const {
    return tangle.view_prefix(tangle.visible_count_for_round(round + 1));
  }

  void grow_round() {
    const auto cones = cache.get(next_round_view());
    ++round;
    Rng rng = master.split(round);
    std::vector<std::vector<TxIndex>> parents;
    for (int p = 0; p < 8; ++p) {
      parents.push_back(select_tips(*cones, 2, rng, {.alpha = alpha}));
    }
    for (int p = 0; p < 8; ++p) {
      const auto added = store.add(
          {static_cast<float>(round), static_cast<float>(p)});
      tangle.add_transaction(parents[p], added.id, added.hash, round);
    }
    if (pruner.tick()) pruner.advance(tangle, store, *cache.get(tangle.view()));
  }
};

void BM_ViewCacheGetPruned(benchmark::State& state) {
  // One round's view-cache get on a pruned ledger: the delta build of the
  // round's prefix view (a hit after a prune tick, as in the engines).
  // Entries hold the live window only, so ~10k and ~40k transactions
  // should read the same.
  PrunedLedger ledger;
  while (ledger.tangle.size() < static_cast<std::size_t>(state.range(0))) {
    ledger.grow_round();
  }
  for (auto _ : state) {
    state.PauseTiming();
    ledger.grow_round();
    const TangleView view = ledger.next_round_view();
    state.ResumeTiming();
    auto entry = ledger.cache.get(view);
    benchmark::DoNotOptimize(entry.get());
  }
  state.counters["window"] = static_cast<double>(
      ledger.tangle.size() - ledger.tangle.prune_floor());
}
// Fixed iterations: each one appends a round, so the ledger grows by
// 1,600 transactions over a run instead of a time-dependent amount.
BENCHMARK(BM_ViewCacheGetPruned)
    ->Arg(10000)
    ->Arg(40000)
    ->Iterations(200)
    ->Unit(benchmark::kMicrosecond);

void BM_RandomWalkTipStationary(benchmark::State& state) {
  // Walks in the stationary regime the ledger_growth workload runs in:
  // λ = 8 per round, h = 1, alpha = 0.01 and milestone pruning, so each
  // walk starts at the prune floor and most of its steps weigh several
  // approvers. BM_RandomWalkTip's one-transaction-at-a-time ledger is
  // mostly single-approver steps, which cost the same in any weighting.
  PrunedLedger ledger(0.01);
  while (ledger.tangle.size() < static_cast<std::size_t>(state.range(0))) {
    ledger.grow_round();
  }
  const auto cones = ledger.cache.get(ledger.next_round_view());
  Rng rng(2);
  const TipSelectionConfig config{.alpha = 0.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_walk_tip(*cones, rng, config));
  }
  state.counters["window"] = static_cast<double>(
      ledger.tangle.size() - ledger.tangle.prune_floor());
}
BENCHMARK(BM_RandomWalkTipStationary)->Arg(10000);

void BM_ConfidenceSampling(benchmark::State& state) {
  // 35 walks plus one reach pass over a prebuilt entry; the entry
  // build itself is BM_ViewCacheBuild.
  GrownTangle grown(static_cast<std::size_t>(state.range(0)));
  const TangleView view = grown.tangle.view();
  const auto cones = ViewCacheEntry::build(view);
  Rng rng(3);
  ConfidenceConfig config;
  config.sample_rounds = 35;  // the paper's setting
  for (auto _ : state) {
    auto confidence = compute_confidences(view, *cones, rng, config);
    benchmark::DoNotOptimize(confidence.values.data());
  }
}
BENCHMARK(BM_ConfidenceSampling)->Arg(200)->Arg(1000);

void BM_Sha256(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_PayloadHash(benchmark::State& state) {
  // Hashing a CNN-sized parameter vector (content addressing cost per
  // published transaction).
  const nn::ParamVector params(static_cast<std::size_t>(state.range(0)), 0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ModelStore::hash_params(params));
  }
}
BENCHMARK(BM_PayloadHash)->Arg(10000)->Arg(100000);

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
    manifest.name = "micro_tangle";
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
