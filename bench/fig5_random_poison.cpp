// Fig. 5: development of consensus model accuracy when adversarial nodes
// inject transactions with random N(0,1) model weights, starting after a
// benign pre-training phase. One run per malicious fraction
// p in {0.1, 0.2, 0.25, 0.3}. Nodes use the Section III-E robust tip
// selection with the paper's parameterization (tip sampling rounds and
// consensus sampling rounds = active nodes per round).
// Expected shape (paper): accuracy unaffected up to p = 0.2; the consensus
// is overtaken within a few dozen rounds for p = 0.25 and 0.3.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tanglefl;
  ArgParser args(argc, argv);
  const auto pretrain = static_cast<std::size_t>(args.get_int(
      "pretrain-rounds", 30, "benign rounds before the attack (paper: 200)"));
  const auto attack_rounds = static_cast<std::size_t>(args.get_int(
      "attack-rounds", 20, "attacked rounds to observe (paper: 50)"));
  const auto users = static_cast<std::size_t>(
      args.get_int("users", 60, "number of writers (paper: 3500)"));
  const auto nodes = static_cast<std::size_t>(
      args.get_int("nodes", 10, "active nodes per round (paper: 35)"));
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 42, "master random seed"));
  const auto threads = static_cast<std::size_t>(
      args.get_int("threads", 1, "worker threads"));
  const tangle::PayloadCodecConfig codec =
      bench::parse_payload_codec_flag(args);
  const bool biased_walk =
      args.get_int("biased-walk", 0,
                   "walk-loss-biased tip selection (the Section III "
                   "personalisation variant; evaluates interior payloads "
                   "at every branch step)") != 0;
  const std::string fractions_list = args.get_string(
      "fractions", "0.1,0.2,0.25,0.3", "malicious fractions to test");
  const std::string csv =
      args.get_string("csv", "fig5_random_poison.csv", "output CSV path");
  bench::BenchRun bench_run("fig5_random_poison", args);
  if (args.should_exit()) return args.help_requested() ? 0 : 1;

  set_log_level(LogLevel::kWarn);
  bench_run.start(seed);
  bench_run.config("pretrain_rounds", pretrain);
  bench_run.config("attack_rounds", attack_rounds);
  bench_run.config("users", users);
  bench_run.config("nodes", nodes);
  bench_run.config("threads", threads);
  bench_run.config("payload_codec", tangle::codec_spec_string(codec));
  bench_run.config("biased_walk", biased_walk);
  bench_run.config("fractions", fractions_list);
  bench_run.config("csv", csv);

  bench::FemnistScale scale;
  scale.users = users;
  scale.seed = seed;
  const data::FederatedDataset dataset = bench::make_femnist(scale);
  const nn::ModelFactory factory = bench::femnist_factory(scale);
  std::cout << "Fig. 5 reproduction: random-weight poisoning attack on the "
               "FEMNIST-synth tangle\nattack starts after round " << pretrain
            << "; accuracy tracked through round " << pretrain + attack_rounds
            << "\n\n";

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
    // Section III-E defence with the paper's parameterization: candidate
    // tip walks = active nodes per round.
    config.node.num_tips = 2;
    config.node.tip_sample_size = nodes;
    config.node.use_biased_walk = biased_walk;
    config.node.reference.num_reference_models = 10;
    config.attack = core::AttackType::kRandomPoison;
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
    // Keep only the attack window (the figure's x-axis starts at the
    // attack round).
    std::erase_if(run.history, [&](const core::RoundRecord& record) {
      return record.round + 4 < pretrain;
    });
    std::cout << "p=" << format_fixed(p, 2)
              << ": final accuracy=" << format_fixed(run.final_accuracy(), 3)
              << " (" << format_fixed(bench_run.seconds(), 0)
              << "s elapsed)\n";
    runs.push_back(std::move(run));
  }

  std::cout << "\n";
  bench::print_series(std::cout, runs);
  bench::write_series_csv(csv, runs);
  bench_run.finish(std::cout);
  return 0;
}
