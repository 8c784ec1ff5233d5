// Ablation: the structured robustness analysis the paper calls for in
// Section V-B ("a structured analysis of the effects of the tangle
// parameters on the robustness should be conducted in the future").
//
// Sweeps the two knobs Section V-B names — the randomness factor alpha of
// the tip-selection walk and the number of candidate-tip sampling rounds —
// under a fixed random-poisoning attack, and reports the post-attack
// consensus accuracy for each combination.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tanglefl;
  ArgParser args(argc, argv);
  const auto pretrain = static_cast<std::size_t>(
      args.get_int("pretrain-rounds", 24, "benign rounds before the attack"));
  const auto attack_rounds = static_cast<std::size_t>(
      args.get_int("attack-rounds", 16, "attacked rounds to observe"));
  const auto users = static_cast<std::size_t>(
      args.get_int("users", 60, "number of writers"));
  const auto nodes = static_cast<std::size_t>(
      args.get_int("nodes", 10, "active nodes per round"));
  const double fraction = args.get_double(
      "fraction", 0.25, "malicious fraction (past the defence threshold)");
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 42, "master random seed"));
  const auto threads = static_cast<std::size_t>(
      args.get_int("threads", 1, "worker threads"));
  const tangle::PayloadCodecConfig codec =
      bench::parse_payload_codec_flag(args);
  const std::string csv =
      args.get_string("csv", "ablation_robustness.csv", "output CSV path");
  bench::BenchRun bench_run("ablation_robustness", args);
  if (args.should_exit()) return args.help_requested() ? 0 : 1;

  set_log_level(LogLevel::kWarn);
  bench_run.start(seed);
  bench_run.config("pretrain_rounds", pretrain);
  bench_run.config("attack_rounds", attack_rounds);
  bench_run.config("users", users);
  bench_run.config("nodes", nodes);
  bench_run.config("fraction", fraction);
  bench_run.config("threads", threads);
  bench_run.config("payload_codec", tangle::codec_spec_string(codec));
  bench_run.config("csv", csv);

  bench::FemnistScale scale;
  scale.users = users;
  scale.seed = seed;
  const data::FederatedDataset dataset = bench::make_femnist(scale);
  const nn::ModelFactory factory = bench::femnist_factory(scale);

  std::cout << "Robustness ablation: random poisoning at p=" << fraction
            << ", attack after round " << pretrain << "\n"
            << "cells: consensus accuracy " << attack_rounds
            << " rounds into the attack\n\n";

  const double alphas[] = {0.001, 0.01, 0.1, 1.0};
  const std::size_t samples[] = {2, nodes, 2 * nodes};

  TablePrinter table({"tip sample size", "alpha=0.001", "alpha=0.01",
                      "alpha=0.1", "alpha=1.0"});
  CsvWriter csv_out(csv, {"alpha", "tip_sample_size", "final_accuracy",
                          "pre_attack_accuracy"});

  for (const std::size_t sample : samples) {
    std::vector<std::string> row = {std::to_string(sample)};
    for (const double alpha : alphas) {
      core::SimulationConfig config;
      config.rounds = pretrain + attack_rounds;
      config.nodes_per_round = nodes;
      config.eval_every = 4;
      config.eval_nodes_fraction = 0.3;
      config.node.training = bench::femnist_training();
      config.node.num_tips = 2;
      config.node.tip_sample_size = sample;
      config.node.tip_selection.alpha = alpha;
      config.node.reference.confidence.tip_selection.alpha = alpha;
      config.node.reference.num_reference_models = 10;
      config.attack = core::AttackType::kRandomPoison;
      config.malicious_fraction = fraction;
      config.attack_start_round = pretrain + 1;
      config.seed = seed;
      config.threads = threads;
      config.codec = codec;
      config.timeline = bench_run.timeline();

      const core::RunResult run = [&] {
        auto timer = bench_run.phase("alpha-sweep");
        return core::run_tangle_learning(dataset, factory, config);
      }();
      double pre_attack = 0.0;
      for (const auto& record : run.history) {
        if (record.round <= pretrain) pre_attack = record.accuracy;
      }
      row.push_back(format_fixed(run.final_accuracy(), 3));
      csv_out.add_row({format_fixed(alpha, 3), std::to_string(sample),
                       format_fixed(run.final_accuracy(), 4),
                       format_fixed(pre_attack, 4)});
    }
    table.add_row(std::move(row));
    std::cout << "... sample size " << sample << " done ("
              << format_fixed(bench_run.seconds(), 0) << "s elapsed)\n";
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: larger candidate samples (the III-E\n"
               "defence) survive the attack; tiny alpha keeps walks too\n"
               "random (poison tips get sampled), huge alpha makes walks\n"
               "deterministic (one poisoned heavy branch captures all).\n"
            << "\n(series written to " << csv << ")\n";
  bench_run.finish(std::cout);
  return 0;
}
