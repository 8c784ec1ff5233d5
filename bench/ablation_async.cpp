// Ablation: round-based vs asynchronous operation (the Section VI outlook
// of simulating real-world network conditions). Runs the event-driven
// simulation at several network-delay and message-loss settings with a
// training budget matched to a round-based reference run, and compares
// final consensus accuracy and ledger structure.
#include "bench_common.hpp"

#include "core/async_simulation.hpp"

int main(int argc, char** argv) {
  using namespace tanglefl;
  ArgParser args(argc, argv);
  const auto users = static_cast<std::size_t>(
      args.get_int("users", 60, "number of writers"));
  const auto rounds = static_cast<std::size_t>(
      args.get_int("rounds", 40, "rounds for the round-based reference"));
  const auto nodes = static_cast<std::size_t>(
      args.get_int("nodes", 10, "active nodes per round (reference)"));
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 42, "master random seed"));
  const tangle::PayloadCodecConfig codec =
      bench::parse_payload_codec_flag(args);
  const std::string csv =
      args.get_string("csv", "ablation_async.csv", "output CSV path");
  bench::BenchRun bench_run("ablation_async", args);
  if (args.should_exit()) return args.help_requested() ? 0 : 1;

  set_log_level(LogLevel::kWarn);
  bench_run.start(seed);
  bench_run.config("users", users);
  bench_run.config("rounds", rounds);
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

  std::cout << "Round-based vs asynchronous tangle learning\n\n";

  // Reference: the Section IV round-based engine.
  core::SimulationConfig round_config;
  round_config.rounds = rounds;
  round_config.nodes_per_round = nodes;
  round_config.eval_every = 5;
  round_config.eval_nodes_fraction = 0.3;
  round_config.node = node;
  round_config.seed = seed;
  round_config.codec = codec;
  round_config.timeline = bench_run.timeline();
  const core::RunResult round_run = [&] {
    auto timer = bench_run.phase("round-based");
    return core::run_tangle_learning(dataset, factory, round_config,
                                     "rounds");
  }();
  std::cout << "... round-based reference done ("
            << format_fixed(bench_run.seconds(), 0) << "s)\n";

  // Async runs with a matched training budget: total wakeups ~=
  // rounds * nodes. With wake rate r per node over duration T,
  // E[wakeups] = users * r * T; pick T accordingly.
  const double wake_rate = 0.2;
  const double duration = static_cast<double>(rounds * nodes) /
                          (static_cast<double>(users) * wake_rate);

  struct Variant {
    std::string name;
    double delay;
    double loss;
  };
  const std::vector<Variant> variants = {
      {"async delay=0.1s", 0.1, 0.0},
      {"async delay=1s", 1.0, 0.0},
      {"async delay=5s", 5.0, 0.0},
      {"async delay=1s loss=30%", 1.0, 0.3},
  };

  std::vector<core::RunResult> runs = {round_run};
  TablePrinter table({"configuration", "final accuracy", "transactions",
                      "publishes lost"});
  table.add_row({"round-based (reference)",
                 format_fixed(round_run.final_accuracy(), 3),
                 std::to_string(round_run.history.empty()
                                    ? 0
                                    : round_run.history.back().tangle_size),
                 "0"});

  for (const Variant& variant : variants) {
    core::AsyncSimulationConfig config;
    config.duration_seconds = duration;
    config.wake_rate_per_node = wake_rate;
    config.mean_training_seconds = 1.0;
    config.network_delay_seconds = variant.delay;
    config.publish_loss = variant.loss;
    config.eval_every_seconds = duration / 8.0;
    config.eval_nodes_fraction = 0.3;
    config.node = node;
    config.seed = seed;
    config.codec = codec;
    config.timeline = bench_run.timeline();
    if (config.timeline != nullptr) config.timeline->begin_run(variant.name);

    core::AsyncTangleSimulation simulation(dataset, factory, config);
    core::RunResult run = [&] {
      auto timer = bench_run.phase(variant.name);
      return simulation.run();
    }();
    run.label = variant.name;
    table.add_row({variant.name, format_fixed(run.final_accuracy(), 3),
                   std::to_string(simulation.tangle().size()),
                   std::to_string(simulation.stats().lost)});
    std::cout << "... " << variant.name << " done ("
              << format_fixed(bench_run.seconds(), 0) << "s)\n";
    runs.push_back(std::move(run));
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: small delays track the round-based\n"
               "reference; large delays slow convergence (stale views);\n"
               "message loss thins the ledger but the consensus remains.\n";
  bench::write_series_csv(csv, runs);
  bench_run.finish(std::cout);
  return 0;
}
