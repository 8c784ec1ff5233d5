// Large-N structural smoke run: grows a 100k-transaction tangle through
// the incremental cone path with milestone pruning enabled, and validates
// the stationary tip count against Kuśmierz's analytic prediction
// L0 ≈ 2·λ·h (λ publishers per round, h = 1 round of visibility delay).
// No neural network is involved — transactions carry 2-float payloads —
// so the run isolates exactly the ledger layer this smoke is guarding:
//
//   * cone state must stay O(n) words (tangle.cones.incremental.bytes),
//     nowhere near the O(n^2/64)-bit BitMatrix a full rebuild would need;
//   * the prune frontier must keep advancing (tangle.prune.*) and frozen
//     payloads must actually be released;
//   * the mean tip count over the stationary second half must land inside
//     a generous [λ, 4λ] band around 2λ.
//
// Exits nonzero when any of those fail, so CI can gate on it directly.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "tangle/health.hpp"
#include "tangle/milestones.hpp"
#include "tangle/model_store.hpp"
#include "tangle/tip_selection.hpp"
#include "tangle/view_cache.hpp"

using namespace tanglefl;
using namespace tanglefl::tangle;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  bench::BenchRun run("tangle_scale_smoke", args);
  const auto transactions = static_cast<std::size_t>(args.get_int(
      "transactions", 100000, "target ledger size (growth stops here)"));
  const auto lambda = static_cast<std::size_t>(
      args.get_int("lambda", 8, "publishers per round (arrival rate)"));
  const auto interval = static_cast<std::size_t>(args.get_int(
      "prune-interval", 16, "rounds between milestone checks"));
  const auto keep_recent = static_cast<std::size_t>(args.get_int(
      "keep-recent", 512, "live-window floor (never-frozen suffix)"));
  const auto health_every = static_cast<std::size_t>(args.get_int(
      "health-every", 250, "rounds between health/timeline probes"));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1, "master RNG seed"));
  if (args.should_exit()) return args.help_requested() ? 0 : 1;
  run.start(seed);
  run.config("transactions", transactions);
  run.config("lambda", lambda);
  run.config("prune_interval", interval);
  run.config("keep_recent", keep_recent);
  run.config("seed", seed);
  if (run.timeline() != nullptr) run.timeline()->begin_run("scale-smoke");

  ModelStore store;
  Tangle tangle = [&] {
    const auto added = store.add({0.0f, 0.0f});
    return Tangle(added.id, added.hash);
  }();
  ViewCache cache(4);
  MilestoneConfig prune_config;
  prune_config.enabled = true;
  prune_config.interval = interval;
  prune_config.keep_recent = keep_recent;
  MilestoneTracker pruner(prune_config);

  HealthConfig health_config;
  health_config.orphan_age = 16;
  health_config.track_confirmation = false;  // keep probes O(N + E)
  HealthTracker health(health_config);
  obs::RegistrySampler sampler;

  Rng master(seed);
  TipSelectionConfig tip_config;
  tip_config.alpha = 0.0;  // unbiased walk: the regime of the 2λh analysis

  // Tip-count series over the stationary second half of the run.
  double tip_sum = 0.0;
  double tip_sq_sum = 0.0;
  std::size_t tip_samples = 0;
  std::size_t max_cone_bytes = 0;

  std::uint64_t round = 0;
  {
    auto timer = run.phase("growth");
    while (tangle.size() < transactions) {
      ++round;
      // h = 1 round of delay: publishers of round r attach to what was
      // published strictly before r (the sync engine's visibility rule).
      const TangleView view =
          tangle.view_prefix(tangle.visible_count_for_round(round));
      const std::shared_ptr<const ViewCacheEntry> cones = cache.get(view);
      Rng round_rng = master.split(round);

      std::vector<std::vector<TxIndex>> parents(lambda);
      for (std::size_t p = 0; p < lambda; ++p) {
        parents[p] = select_tips(*cones, 2, round_rng, tip_config);
      }
      for (std::size_t p = 0; p < lambda; ++p) {
        const auto added = store.add(
            {static_cast<float>(round), static_cast<float>(p)});
        tangle.add_transaction(parents[p], added.id, added.hash, round);
      }

      if (pruner.tick()) {
        pruner.advance(tangle, store, *cache.get(tangle.view()));
      }

      // Tip statistics over the stationary regime only.
      const std::size_t n_rounds = transactions / lambda;
      if (round > n_rounds / 2) {
        const std::shared_ptr<const ViewCacheEntry> full =
            cache.get(tangle.view());
        tip_sum += static_cast<double>(full->tips().size());
        tip_sq_sum += static_cast<double>(full->tips().size()) *
                      static_cast<double>(full->tips().size());
        ++tip_samples;
      }
      if (run.timeline() != nullptr && round % health_every == 0) {
        const TangleView full_view = tangle.view();
        const std::shared_ptr<const ViewCacheEntry> full_cones =
            cache.get(full_view);
        Rng health_rng = master.split(1u << 20).split(round);
        health.sample(full_view, *full_cones, round, health_rng);
        sampler.sample(*run.timeline(), round);
      }
    }
  }

  // --- report + gate ----------------------------------------------------
  const double tip_mean =
      tip_samples > 0 ? tip_sum / static_cast<double>(tip_samples) : 0.0;
  const double tip_var =
      tip_samples > 0
          ? tip_sq_sum / static_cast<double>(tip_samples) - tip_mean * tip_mean
          : 0.0;
  const double tip_std = std::sqrt(std::max(0.0, tip_var));
  const double predicted = 2.0 * static_cast<double>(lambda);  // 2λh, h = 1

  const double cone_bytes =
      obs::MetricsRegistry::global()
          .gauge("tangle.cones.incremental.bytes")
          .value();
  max_cone_bytes = static_cast<std::size_t>(cone_bytes);
  const double n = static_cast<double>(tangle.size());
  const double bitmatrix_bytes = n * n / 8.0;  // one n x n bit matrix
  const double floor_value =
      obs::MetricsRegistry::global().gauge("tangle.prune.floor").value();
  std::size_t released = 0;
  for (PayloadId id = 0; id < store.size(); ++id) {
    released += store.is_released(id) ? 1 : 0;
  }

  std::cout << "transactions: " << tangle.size() << " over " << round
            << " rounds (lambda=" << lambda << ")\n"
            << "tip count (2nd half): mean=" << format_fixed(tip_mean, 2)
            << " std=" << format_fixed(tip_std, 2)
            << " predicted 2*lambda*h=" << format_fixed(predicted, 1) << "\n"
            << "prune floor: " << static_cast<std::size_t>(floor_value)
            << " (live window "
            << tangle.size() - static_cast<std::size_t>(floor_value)
            << "), payloads released: " << released << "/" << store.size()
            << "\n"
            << "cone state: " << max_cone_bytes << " bytes vs "
            << format_fixed(bitmatrix_bytes / (1024.0 * 1024.0), 1)
            << " MiB for one BitMatrix rebuild\n";

  bool ok = true;
  const double band_low = static_cast<double>(lambda);
  const double band_high = 4.0 * static_cast<double>(lambda);
  if (tip_mean < band_low || tip_mean > band_high) {
    std::cout << "FAIL: mean tip count " << format_fixed(tip_mean, 2)
              << " outside Kusmierz band [" << format_fixed(band_low, 1)
              << ", " << format_fixed(band_high, 1) << "]\n";
    ok = false;
  }
  if (floor_value <= 0.0) {
    std::cout << "FAIL: prune frontier never advanced\n";
    ok = false;
  }
  if (released == 0) {
    std::cout << "FAIL: no payload was garbage-collected\n";
    ok = false;
  }
  // Sublinear vs the quadratic rebuild: the maintained state must be a
  // vanishing fraction of one BitMatrix pass at this scale.
  if (cone_bytes <= 0.0 || cone_bytes > bitmatrix_bytes / 16.0) {
    std::cout << "FAIL: cone state " << max_cone_bytes
              << " bytes is not sublinear vs the BitMatrix rebuild\n";
    ok = false;
  }

  run.finish(std::cout);
  return ok ? 0 : 1;
}
