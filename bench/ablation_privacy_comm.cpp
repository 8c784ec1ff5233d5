// Ablation: privacy and communication-cost transforms on the publishing
// path (Sections III-C and III-D). Compares tangle convergence with
//   * plain full-precision payloads (the paper's prototype),
//   * 8-bit quantized payloads (4x smaller on the wire),
//   * DP-sanitized updates at two noise levels (Gaussian mechanism),
// and reports per-transaction payload bytes next to final accuracy.
//
// --frontier 1 additionally sweeps payload-codec stage combinations
// (tangle/payload_codec.hpp) and writes an accuracy-vs-bytes frontier CSV:
// one row per codec spec with the measured encoded/raw ledger bytes and the
// run's final accuracy (see EXPERIMENTS.md).
#include "bench_common.hpp"

#include "nn/privacy.hpp"

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
  const auto threads = static_cast<std::size_t>(
      args.get_int("threads", 1, "worker threads"));
  const tangle::PayloadCodecConfig codec =
      bench::parse_payload_codec_flag(args);
  const bool frontier =
      args.get_int("frontier", 0,
                   "1 = also sweep codec stage combinations and write the "
                   "accuracy-vs-bytes frontier CSV") != 0;
  const std::string frontier_csv = args.get_string(
      "frontier-csv", "ablation_privacy_comm_frontier.csv",
      "frontier sweep output CSV path (--frontier 1 only)");
  const std::string csv =
      args.get_string("csv", "ablation_privacy_comm.csv", "output CSV path");
  bench::BenchRun bench_run("ablation_privacy_comm", args);
  if (args.should_exit()) return args.help_requested() ? 0 : 1;

  set_log_level(LogLevel::kWarn);
  bench_run.start(seed);
  bench_run.config("rounds", rounds);
  bench_run.config("users", users);
  bench_run.config("nodes", nodes);
  bench_run.config("threads", threads);
  bench_run.config("payload_codec", tangle::codec_spec_string(codec));
  bench_run.config("frontier", frontier);
  bench_run.config("csv", csv);

  bench::FemnistScale scale;
  scale.users = users;
  scale.seed = seed;
  const data::FederatedDataset dataset = bench::make_femnist(scale);
  const nn::ModelFactory factory = bench::femnist_factory(scale);
  const std::size_t param_count = factory().parameter_count();

  std::cout << "Privacy/communication ablation on the FEMNIST-synth tangle ("
            << param_count << " parameters per payload)\n\n";

  struct Variant {
    std::string name;
    bool quantize = false;
    bool dp = false;
    double noise = 0.0;
    std::size_t payload_bytes = 0;
  };
  std::vector<Variant> variants = {
      {"full precision", false, false, 0.0, param_count * sizeof(float)},
      {"8-bit quantized", true, false, 0.0,
       param_count * sizeof(std::int8_t) + sizeof(float)},
      {"dp clip=1 sigma=0.01", false, true, 0.01,
       param_count * sizeof(float)},
      {"dp clip=1 sigma=0.05", false, true, 0.05,
       param_count * sizeof(float)},
  };

  std::vector<core::RunResult> runs;
  TablePrinter table({"variant", "payload bytes", "final accuracy",
                      "rounds to 0.5"});
  for (const Variant& variant : variants) {
    core::SimulationConfig config;
    config.rounds = rounds;
    config.nodes_per_round = nodes;
    config.eval_every = 4;
    config.eval_nodes_fraction = 0.3;
    config.node.training = bench::femnist_training();
    config.node.num_tips = 3;
    config.node.tip_sample_size = 6;
    config.node.reference.num_reference_models = 10;
    config.node.quantize_payloads = variant.quantize;
    config.node.use_dp = variant.dp;
    config.node.dp.clip_norm = 1.0;
    config.node.dp.noise_multiplier = variant.noise;
    config.seed = seed;
    config.threads = threads;
    config.codec = codec;
    config.timeline = bench_run.timeline();

    const core::RunResult run = [&] {
      auto timer = bench_run.phase(variant.name);
      return core::run_tangle_learning(dataset, factory, config,
                                       variant.name);
    }();
    const std::int64_t reach = run.rounds_to_accuracy(0.5);
    std::string cell;
    if (reach < 0) cell += '>';
    cell += std::to_string(reach < 0 ? static_cast<std::int64_t>(rounds)
                                     : reach);
    table.add_row({variant.name, std::to_string(variant.payload_bytes),
                   format_fixed(run.final_accuracy(), 3), std::move(cell)});
    std::cout << "... " << variant.name << " done ("
              << format_fixed(bench_run.seconds(), 0) << "s elapsed)\n";
    runs.push_back(run);
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n";
  bench::print_series(std::cout, runs);
  bench::write_series_csv(csv, runs);

  if (frontier) {
    // Accuracy-vs-bytes frontier: the same full-precision run under one
    // codec spec per row, from lossless to aggressively lossy. Ledger
    // byte counts come from per-run deltas of the global codec counters.
    const std::vector<std::string> specs = {
        "off",
        "delta,entropy",
        "delta,quantize,entropy",
        "delta,topk:0.1,entropy",
        "delta,topk:0.05,quantize,entropy",
        "delta,topk:0.01,quantize,entropy",
    };
    obs::Counter& raw_counter =
        obs::MetricsRegistry::global().counter("ledger.codec.raw_bytes");
    obs::Counter& encoded_counter =
        obs::MetricsRegistry::global().counter("ledger.codec.encoded_bytes");
    CsvWriter frontier_out(frontier_csv,
                           {"codec", "raw_bytes", "encoded_bytes", "ratio",
                            "final_accuracy", "rounds_to_half"});
    std::cout << "\nfrontier sweep (" << specs.size() << " codec specs)\n";
    for (const std::string& spec : specs) {
      core::SimulationConfig config;
      config.rounds = rounds;
      config.nodes_per_round = nodes;
      config.eval_every = 4;
      config.eval_nodes_fraction = 0.3;
      config.node.training = bench::femnist_training();
      config.node.num_tips = 3;
      config.node.tip_sample_size = 6;
      config.node.reference.num_reference_models = 10;
      config.seed = seed;
      config.threads = threads;
      config.codec = tangle::parse_codec_spec(spec);

      const std::uint64_t raw_before = raw_counter.value();
      const std::uint64_t encoded_before = encoded_counter.value();
      const core::RunResult run = [&] {
        auto timer = bench_run.phase("frontier " + spec);
        return core::run_tangle_learning(dataset, factory, config, spec);
      }();
      const std::uint64_t raw = raw_counter.value() - raw_before;
      const std::uint64_t encoded = encoded_counter.value() - encoded_before;
      const double ratio =
          raw > 0 ? static_cast<double>(encoded) / static_cast<double>(raw)
                  : 1.0;
      const std::int64_t reach = run.rounds_to_accuracy(0.5);
      frontier_out.add_row(
          {spec, std::to_string(raw), std::to_string(encoded),
           format_fixed(ratio, 4), format_fixed(run.final_accuracy(), 5),
           std::to_string(reach)});
      std::cout << "... " << spec << ": ratio=" << format_fixed(ratio, 3)
                << " accuracy=" << format_fixed(run.final_accuracy(), 3)
                << " (" << format_fixed(bench_run.seconds(), 0)
                << "s elapsed)\n";
    }
    std::cout << "(frontier written to " << frontier_csv << ")\n";
  }

  bench_run.finish(std::cout);
  return 0;
}
