// Ablation: boosted trigger-patch backdoor attack on the tangle — the
// "different classes of poisoning attacks" Section VI calls for, after
// Bagdasaryan et al. [29]. Unlike the Fig. 5/6 adversaries, the backdoor
// attacker keeps its clean accuracy (stealth), so the Algorithm 2
// validation gate of honest nodes does not obviously reject its models.
// Sweeps the malicious fraction and the model-replacement boost factor,
// reporting consensus accuracy and backdoor success.
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
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 42, "master random seed"));
  const auto threads = static_cast<std::size_t>(
      args.get_int("threads", 1, "worker threads"));
  const tangle::PayloadCodecConfig codec =
      bench::parse_payload_codec_flag(args);
  const std::string csv =
      args.get_string("csv", "ablation_backdoor.csv", "output CSV path");
  bench::BenchRun bench_run("ablation_backdoor", args);
  if (args.should_exit()) return args.help_requested() ? 0 : 1;

  set_log_level(LogLevel::kWarn);
  bench_run.start(seed);
  bench_run.config("pretrain_rounds", pretrain);
  bench_run.config("attack_rounds", attack_rounds);
  bench_run.config("users", users);
  bench_run.config("nodes", nodes);
  bench_run.config("threads", threads);
  bench_run.config("payload_codec", tangle::codec_spec_string(codec));
  bench_run.config("csv", csv);

  bench::FemnistScale scale;
  scale.users = users;
  scale.seed = seed;
  const data::FederatedDataset dataset = bench::make_femnist(scale);
  const nn::ModelFactory factory = bench::femnist_factory(scale);

  std::cout << "Backdoor (model replacement) attack on the FEMNIST-synth "
               "tangle\ntrigger: 2x2 corner patch -> class 1; attack after "
               "round " << pretrain << "\n\n";

  struct Cell {
    double fraction;
    double boost;
  };
  const std::vector<Cell> cells = {
      {0.1, 1.0}, {0.1, 5.0}, {0.2, 1.0}, {0.2, 5.0}, {0.3, 5.0}};

  TablePrinter table({"malicious p", "boost", "clean accuracy",
                      "backdoor success"});
  CsvWriter csv_out(csv, {"fraction", "boost", "accuracy",
                          "backdoor_success"});

  for (const Cell& cell : cells) {
    core::SimulationConfig config;
    config.rounds = pretrain + attack_rounds;
    config.nodes_per_round = nodes;
    config.eval_every = 4;
    config.eval_nodes_fraction = 0.3;
    config.node.training = bench::femnist_training();
    config.node.num_tips = 2;
    config.node.tip_sample_size = nodes;  // the III-E defence
    config.node.reference.num_reference_models = 10;
    config.attack = core::AttackType::kBackdoor;
    config.malicious_fraction = cell.fraction;
    config.attack_start_round = pretrain + 1;
    config.trigger = {.target_class = 1, .patch_size = 2,
                      .trigger_value = 1.0f};
    config.backdoor_boost = cell.boost;
    config.seed = seed;
    config.threads = threads;
    config.codec = codec;
    config.timeline = bench_run.timeline();

    const std::string label = "p=" + format_fixed(cell.fraction, 1) +
                              " boost=" + format_fixed(cell.boost, 0);
    const core::RunResult run = [&] {
      auto timer = bench_run.phase(label);
      return core::run_tangle_learning(dataset, factory, config, label);
    }();
    const auto& last = run.history.back();
    table.add_row({format_fixed(cell.fraction, 2),
                   format_fixed(cell.boost, 0),
                   format_fixed(last.accuracy, 3),
                   format_fixed(last.backdoor_success, 3)});
    csv_out.add_row({format_fixed(cell.fraction, 2),
                     format_fixed(cell.boost, 1),
                     format_fixed(last.accuracy, 4),
                     format_fixed(last.backdoor_success, 4)});
    std::cout << "... p=" << cell.fraction << " boost=" << cell.boost
              << " done (" << format_fixed(bench_run.seconds(), 0)
              << "s elapsed)\n";
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nReading: high backdoor success with intact clean accuracy\n"
               "means the attack slipped past the validation gate — the\n"
               "stealthy-poisoning weakness the paper flags as open.\n"
            << "\n(series written to " << csv << ")\n";
  bench_run.finish(std::cout);
  return 0;
}
