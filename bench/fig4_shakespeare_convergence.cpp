// Fig. 4: mean accuracy per round of federated averaging (baseline) and
// unoptimized tangle learning on the Shakespeare-like next-character task,
// 10 active nodes per round. Expected shape (paper): the tangle trails the
// baseline through an initial bootstrapping phase, then closes to a final
// gap of a few percentage points.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tanglefl;
  ArgParser args(argc, argv);
  const auto rounds = static_cast<std::size_t>(
      args.get_int("rounds", 50, "training rounds per run (paper: 200)"));
  const auto users = static_cast<std::size_t>(
      args.get_int("users", 20, "number of roles (paper: 1058)"));
  const auto nodes = static_cast<std::size_t>(
      args.get_int("nodes", 10, "active nodes per round (paper: 10)"));
  const auto eval_every = static_cast<std::size_t>(
      args.get_int("eval-every", 4, "evaluation cadence in rounds"));
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 42, "master random seed"));
  const auto threads = static_cast<std::size_t>(
      args.get_int("threads", 1, "worker threads for per-round training"));
  const auto kernel_threads = static_cast<std::size_t>(args.get_int(
      "kernel-threads", 0,
      "GEMM kernel pool size for the tangle run (0 = serial; results are "
      "bit-identical for any value)"));
  const tangle::PayloadCodecConfig codec =
      bench::parse_payload_codec_flag(args);
  const std::string csv = args.get_string(
      "csv", "fig4_shakespeare_convergence.csv", "output CSV path");
  bench::BenchRun run("fig4_shakespeare_convergence", args);
  if (args.should_exit()) return args.help_requested() ? 0 : 1;

  set_log_level(LogLevel::kWarn);
  run.start(seed);
  run.config("rounds", rounds);
  run.config("users", users);
  run.config("nodes", nodes);
  run.config("eval_every", eval_every);
  run.config("threads", threads);
  run.config("kernel_threads", kernel_threads);
  run.config("payload_codec", tangle::codec_spec_string(codec));
  run.config("csv", csv);

  bench::ShakespeareScale scale;
  scale.users = users;
  scale.seed = seed;
  const data::FederatedDataset dataset = bench::make_shakespeare(scale);
  const nn::ModelFactory factory = bench::shakespeare_factory(scale);
  std::cout << "Fig. 4 reproduction: Shakespeare-synth convergence, "
            << dataset.num_users() << " roles, "
            << dataset.stats().total_samples << " samples, model "
            << factory().summary() << "\n\n";

  fedavg::FedAvgConfig fedavg_config;
  fedavg_config.rounds = rounds;
  fedavg_config.clients_per_round = nodes;
  fedavg_config.eval_every = eval_every;
  fedavg_config.eval_nodes_fraction = 0.3;
  fedavg_config.training = bench::shakespeare_training();
  fedavg_config.seed = seed;
  fedavg_config.threads = threads;
  const core::RunResult fedavg_run = [&] {
    auto timer = run.phase("fedavg");
    return fedavg::run_fedavg(dataset, factory, fedavg_config, "fedavg");
  }();

  // Fig. 4 runs the tangle *without* hyperparameter optimization.
  core::SimulationConfig tangle_config;
  tangle_config.rounds = rounds;
  tangle_config.nodes_per_round = nodes;
  tangle_config.eval_every = eval_every;
  tangle_config.eval_nodes_fraction = 0.3;
  tangle_config.node.training = bench::shakespeare_training();
  tangle_config.node.num_tips = 2;
  tangle_config.node.tip_sample_size = 2;
  tangle_config.node.reference.num_reference_models = 1;
  tangle_config.seed = seed;
  tangle_config.threads = threads;
  tangle_config.kernel_threads = kernel_threads;
  tangle_config.codec = codec;
  tangle_config.timeline = run.timeline();
  const core::RunResult tangle_run = [&] {
    auto timer = run.phase("tangle");
    return core::run_tangle_learning(dataset, factory, tangle_config,
                                     "tangle");
  }();

  bench::print_series(std::cout, {fedavg_run, tangle_run});
  std::cout << "final: fedavg=" << format_fixed(fedavg_run.final_accuracy(), 3)
            << " tangle=" << format_fixed(tangle_run.final_accuracy(), 3)
            << " gap=" << format_fixed(fedavg_run.final_accuracy() -
                                           tangle_run.final_accuracy(), 3)
            << " (paper: 0.55 vs 0.50 after 200 rounds)\n";

  bench::write_series_csv(csv, {fedavg_run, tangle_run});
  run.finish(std::cout);
  return 0;
}
