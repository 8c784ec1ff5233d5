// Ablation: learning quality under gossip-replicated partial views —
// how much consensus accuracy costs when nodes never see the full ledger.
// Sweeps the gossip fanout and the per-pull transfer budget, and reports
// final accuracy next to mean replica coverage.
#include "bench_common.hpp"

#include "core/gossip_simulation.hpp"

int main(int argc, char** argv) {
  using namespace tanglefl;
  ArgParser args(argc, argv);
  const auto rounds = static_cast<std::size_t>(
      args.get_int("rounds", 40, "training rounds per run"));
  const auto users = static_cast<std::size_t>(
      args.get_int("users", 60, "number of writers"));
  const auto nodes = static_cast<std::size_t>(
      args.get_int("nodes", 10, "active nodes per round"));
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 42, "master random seed"));
  const tangle::PayloadCodecConfig codec =
      bench::parse_payload_codec_flag(args);
  const std::string csv =
      args.get_string("csv", "ablation_gossip.csv", "output CSV path");
  bench::BenchRun bench_run("ablation_gossip", args);
  if (args.should_exit()) return args.help_requested() ? 0 : 1;

  set_log_level(LogLevel::kWarn);
  bench_run.start(seed);
  bench_run.config("rounds", rounds);
  bench_run.config("users", users);
  bench_run.config("nodes", nodes);
  bench_run.config("payload_codec", tangle::codec_spec_string(codec));
  bench_run.config("csv", csv);

  bench::FemnistScale scale;
  scale.users = users;
  scale.seed = seed;
  const data::FederatedDataset dataset = bench::make_femnist(scale);
  const nn::ModelFactory factory = bench::femnist_factory(scale);

  core::NodeConfig node;
  node.training = bench::femnist_training();
  node.num_tips = 3;
  node.tip_sample_size = 6;
  node.reference.num_reference_models = 10;
  node.reference.confidence.sample_rounds = nodes;

  std::cout << "Gossip-replicated tangle learning: partial views vs the "
               "fully replicated reference\n\n";

  // Reference: fully replicated round-based engine.
  core::SimulationConfig reference_config;
  reference_config.rounds = rounds;
  reference_config.nodes_per_round = nodes;
  reference_config.eval_every = 5;
  reference_config.eval_nodes_fraction = 0.3;
  reference_config.node = node;
  reference_config.seed = seed;
  reference_config.codec = codec;
  reference_config.timeline = bench_run.timeline();
  const core::RunResult reference = [&] {
    auto timer = bench_run.phase("full-replication");
    return core::run_tangle_learning(dataset, factory, reference_config,
                                     "full-replication");
  }();
  std::cout << "... full-replication reference done ("
            << format_fixed(bench_run.seconds(), 0) << "s)\n";

  struct Variant {
    std::string name;
    std::size_t fanout;
    std::size_t exchanges;
    std::size_t max_transfer;
    double pull_failure;
  };
  const std::vector<Variant> variants = {
      {"gossip k=3 x2", 3, 2, 0, 0.0},
      {"gossip k=2 x1", 2, 1, 0, 0.0},
      {"gossip k=3 x2 cap=16", 3, 2, 16, 0.0},
      {"gossip k=3 x2 30% loss", 3, 2, 0, 0.3},
  };

  TablePrinter table({"configuration", "final accuracy", "mean coverage",
                      "failed pulls"});
  table.add_row({"full replication (reference)",
                 format_fixed(reference.final_accuracy(), 3), "1.000", "0"});
  std::vector<core::RunResult> runs = {reference};

  for (const Variant& variant : variants) {
    core::GossipConfig config;
    config.rounds = rounds;
    config.nodes_per_round = nodes;
    config.peers_per_node = variant.fanout;
    config.gossip_exchanges = variant.exchanges;
    config.max_transfer = variant.max_transfer;
    config.pull_failure = variant.pull_failure;
    config.eval_every = 5;
    config.eval_nodes_fraction = 0.3;
    config.node = node;
    config.seed = seed;
    config.codec = codec;
    config.timeline = bench_run.timeline();
    if (config.timeline != nullptr) config.timeline->begin_run(variant.name);

    core::GossipSimulation simulation(dataset, factory, config);
    core::RunResult run = [&] {
      auto timer = bench_run.phase(variant.name);
      return simulation.run();
    }();
    run.label = variant.name;
    table.add_row({variant.name, format_fixed(run.final_accuracy(), 3),
                   format_fixed(simulation.stats().final_mean_coverage, 3),
                   std::to_string(simulation.stats().failed_pulls)});
    std::cout << "... " << variant.name << " done ("
              << format_fixed(bench_run.seconds(), 0) << "s)\n";
    runs.push_back(std::move(run));
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: healthy gossip (k=3, two exchanges)\n"
               "tracks full replication; starved gossip (low fanout, small\n"
               "transfer caps, lossy pulls) lowers coverage and costs\n"
               "consensus accuracy.\n";
  bench::write_series_csv(csv, runs);
  bench_run.finish(std::cout);
  return 0;
}
