// Fig. 6: effects of a targeted label-flipping attack (source class 3
// relabeled as 8) on a pre-trained tangle, for malicious fractions
// p in {0.1, 0.2, 0.3}. Reports both series of the figure:
//   (a) consensus model accuracy per round, and
//   (b) average target misclassification percentage (true-3 samples
//       predicted as 8).
// Expected shape (paper): the p = 0.1 attack fails; p >= 0.2 initially
// succeeds, then the tangle recovers to a more accurate state within a
// few dozen rounds.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tanglefl;
  ArgParser args(argc, argv);
  const auto pretrain = static_cast<std::size_t>(args.get_int(
      "pretrain-rounds", 30, "benign rounds before the attack (paper: 200)"));
  const auto attack_rounds = static_cast<std::size_t>(args.get_int(
      "attack-rounds", 24, "attacked rounds to observe (paper: 50)"));
  const auto users = static_cast<std::size_t>(
      args.get_int("users", 60, "number of writers (paper: 3500)"));
  const auto nodes = static_cast<std::size_t>(
      args.get_int("nodes", 10, "active nodes per round (paper: 35)"));
  const auto source = static_cast<std::int32_t>(
      args.get_int("source-class", 3, "attacked source class (paper: 3)"));
  const auto target = static_cast<std::int32_t>(
      args.get_int("target-class", 8, "targeted label (paper: 8)"));
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 42, "master random seed"));
  const auto threads = static_cast<std::size_t>(
      args.get_int("threads", 1, "worker threads"));
  const tangle::PayloadCodecConfig codec =
      bench::parse_payload_codec_flag(args);
  const std::string fractions_list =
      args.get_string("fractions", "0.1,0.2,0.3", "malicious fractions");
  const std::string csv =
      args.get_string("csv", "fig6_label_flip.csv", "output CSV path");
  bench::BenchRun bench_run("fig6_label_flip", args);
  if (args.should_exit()) return args.help_requested() ? 0 : 1;

  set_log_level(LogLevel::kWarn);
  bench_run.start(seed);
  bench_run.config("pretrain_rounds", pretrain);
  bench_run.config("attack_rounds", attack_rounds);
  bench_run.config("users", users);
  bench_run.config("nodes", nodes);
  bench_run.config("source_class", static_cast<std::int64_t>(source));
  bench_run.config("target_class", static_cast<std::int64_t>(target));
  bench_run.config("threads", threads);
  bench_run.config("payload_codec", tangle::codec_spec_string(codec));
  bench_run.config("fractions", fractions_list);
  bench_run.config("csv", csv);

  bench::FemnistScale scale;
  scale.users = users;
  scale.seed = seed;
  const data::FederatedDataset dataset = bench::make_femnist(scale);
  const nn::ModelFactory factory = bench::femnist_factory(scale);
  std::cout << "Fig. 6 reproduction: label-flipping attack " << source
            << " -> " << target << " on the FEMNIST-synth tangle\n"
            << "attack starts after round " << pretrain << "\n\n";

  std::vector<double> fractions;
  for (std::size_t pos = 0; pos < fractions_list.size();) {
    const auto comma = fractions_list.find(',', pos);
    fractions.push_back(std::stod(fractions_list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  std::vector<core::RunResult> runs;
  for (const double p : fractions) {
    core::SimulationConfig config;
    config.rounds = pretrain + attack_rounds;
    config.nodes_per_round = nodes;
    config.eval_every = 2;
    config.eval_nodes_fraction = 0.3;
    config.node.training = bench::femnist_training();
    config.node.num_tips = 2;
    config.node.tip_sample_size = nodes;
    config.node.reference.num_reference_models = 10;
    config.attack = core::AttackType::kLabelFlip;
    config.flip = {source, target};
    config.malicious_fraction = p;
    config.attack_start_round = pretrain + 1;
    config.seed = seed;
    config.threads = threads;
    config.codec = codec;
    config.timeline = bench_run.timeline();

    core::RunResult run = [&] {
      auto timer = bench_run.phase("p=" + format_fixed(p, 2));
      return core::run_tangle_learning(dataset, factory, config,
                                       "p=" + format_fixed(p, 2));
    }();
    std::erase_if(run.history, [&](const core::RoundRecord& record) {
      return record.round + 4 < pretrain;
    });
    std::cout << "p=" << format_fixed(p, 2)
              << ": final accuracy=" << format_fixed(run.final_accuracy(), 3)
              << " final target misclassification="
              << format_fixed(
                     run.history.empty()
                         ? 0.0
                         : run.history.back().target_misclassification,
                     3)
              << " (" << format_fixed(bench_run.seconds(), 0)
              << "s elapsed)\n";
    runs.push_back(std::move(run));
  }

  std::cout << "\n(a) consensus model accuracy per round:\n";
  bench::print_series(std::cout, runs);

  std::cout << "\n(b) average target misclassification percentage:\n";
  std::vector<std::string> header = {"round"};
  for (const auto& run : runs) header.push_back(run.label);
  TablePrinter misclass(std::move(header));
  if (!runs.empty()) {
    for (std::size_t i = 0; i < runs.front().history.size(); ++i) {
      std::vector<std::string> row = {
          std::to_string(runs.front().history[i].round)};
      for (const auto& run : runs) {
        row.push_back(
            i < run.history.size()
                ? format_fixed(
                      100.0 * run.history[i].target_misclassification, 1)
                : "");
      }
      misclass.add_row(std::move(row));
    }
  }
  misclass.print(std::cout);

  bench::write_series_csv(csv, runs);
  bench_run.finish(std::cout);
  return 0;
}
