// Fig. 3: mean prediction accuracy of federated averaging (baseline) and
// tangle learning on the FEMNIST-like dataset, for three nodes-per-round
// settings (subplots a/b/c). Two tangle variants are run:
//   * Tangle       — 2 selected tips, single consensus model (unoptimized)
//   * Tangle (opt.) — 3 tips, reference averaged from the top 10 models
// Expected shape (paper): FedAvg >= Tangle(opt.) ~ FedAvg > Tangle, with
// the unoptimized tangle closing to within ~0.1 of the baseline by the
// final rounds, and convergence roughly independent of nodes per round.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tanglefl;
  ArgParser args(argc, argv);
  const auto rounds = static_cast<std::size_t>(
      args.get_int("rounds", 60, "training rounds per run (paper: 200)"));
  const auto users = static_cast<std::size_t>(
      args.get_int("users", 60, "number of writers (paper: 3500)"));
  const auto eval_every = static_cast<std::size_t>(
      args.get_int("eval-every", 5, "evaluation cadence in rounds (paper: 20)"));
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 42, "master random seed"));
  const auto threads = static_cast<std::size_t>(
      args.get_int("threads", 1, "worker threads for per-round training"));
  const auto kernel_threads = static_cast<std::size_t>(args.get_int(
      "kernel-threads", 0,
      "GEMM kernel pool size shared by the tangle runs (0 = serial; "
      "results are bit-identical for any value)"));
  const tangle::PayloadCodecConfig codec =
      bench::parse_payload_codec_flag(args);
  const std::string nodes_list = args.get_string(
      "nodes", "6,10,20",
      "comma-separated nodes-per-round settings (paper: 10,35,50)");
  const std::string csv = args.get_string(
      "csv", "fig3_femnist_convergence.csv", "output CSV path");
  bench::BenchRun run("fig3_femnist_convergence", args);
  if (args.should_exit()) return args.help_requested() ? 0 : 1;

  set_log_level(LogLevel::kWarn);
  run.start(seed);
  run.config("rounds", rounds);
  run.config("users", users);
  run.config("eval_every", eval_every);
  run.config("threads", threads);
  run.config("kernel_threads", kernel_threads);
  run.config("payload_codec", tangle::codec_spec_string(codec));
  run.config("nodes", nodes_list);
  run.config("csv", csv);

  bench::FemnistScale scale;
  scale.users = users;
  scale.seed = seed;
  const data::FederatedDataset dataset = bench::make_femnist(scale);
  const nn::ModelFactory factory = bench::femnist_factory(scale);
  std::cout << "Fig. 3 reproduction: FEMNIST-synth convergence, "
            << dataset.num_users() << " users, "
            << dataset.stats().total_samples << " samples, model "
            << factory().summary() << "\n";

  // Parse the nodes-per-round list.
  std::vector<std::size_t> node_settings;
  for (std::size_t pos = 0; pos < nodes_list.size();) {
    const auto comma = nodes_list.find(',', pos);
    const std::string token = nodes_list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    node_settings.push_back(static_cast<std::size_t>(std::stoul(token)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  std::vector<core::RunResult> all_runs;
  for (const std::size_t nodes : node_settings) {
    std::string suffix = "@";
    suffix += std::to_string(nodes);
    std::cout << "\n--- " << nodes << " nodes per round (Fig. 3"
              << (nodes == node_settings.front() ? "a" : "")
              << ") ---\n";

    fedavg::FedAvgConfig fedavg_config;
    fedavg_config.rounds = rounds;
    fedavg_config.clients_per_round = nodes;
    fedavg_config.eval_every = eval_every;
    fedavg_config.eval_nodes_fraction = 0.3;
    fedavg_config.training = bench::femnist_training();
    fedavg_config.seed = seed;
    fedavg_config.threads = threads;
    const core::RunResult fedavg_run = [&] {
      auto timer = run.phase("fedavg");
      return fedavg::run_fedavg(dataset, factory, fedavg_config,
                                "fedavg" + suffix);
    }();

    core::SimulationConfig base;
    base.rounds = rounds;
    base.nodes_per_round = nodes;
    base.eval_every = eval_every;
    base.eval_nodes_fraction = 0.3;
    base.node.training = bench::femnist_training();
    base.seed = seed;
    base.threads = threads;
    base.kernel_threads = kernel_threads;
    base.codec = codec;
    base.timeline = run.timeline();

    // Unoptimized: 2 tips, single consensus model (Section V-A, first trial).
    core::SimulationConfig plain = base;
    plain.node.num_tips = 2;
    plain.node.tip_sample_size = 2;
    plain.node.reference.num_reference_models = 1;
    const core::RunResult tangle_run = [&] {
      auto timer = run.phase("tangle");
      return core::run_tangle_learning(dataset, factory, plain,
                                       "tangle" + suffix);
    }();

    // Optimized: 3 tips, top-10 reference average (Section V-A).
    core::SimulationConfig opt = base;
    opt.node.num_tips = 3;
    opt.node.tip_sample_size = 6;
    opt.node.reference.num_reference_models = 10;
    const core::RunResult opt_run = [&] {
      auto timer = run.phase("tangle-opt");
      return core::run_tangle_learning(dataset, factory, opt,
                                       "tangle-opt" + suffix);
    }();

    bench::print_series(std::cout, {fedavg_run, tangle_run, opt_run});
    std::cout << "final: fedavg=" << format_fixed(fedavg_run.final_accuracy(), 3)
              << " tangle=" << format_fixed(tangle_run.final_accuracy(), 3)
              << " tangle-opt=" << format_fixed(opt_run.final_accuracy(), 3)
              << "\n";
    all_runs.push_back(fedavg_run);
    all_runs.push_back(tangle_run);
    all_runs.push_back(opt_run);
  }

  bench::write_series_csv(csv, all_runs);
  run.finish(std::cout);
  return 0;
}
