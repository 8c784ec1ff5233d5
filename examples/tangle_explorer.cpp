// Tangle explorer: builds a small learning tangle, then inspects the
// ledger the way Section III describes it — tips, confidences, ratings,
// the Algorithm 1 priority ordering — and dumps a Graphviz rendering in
// the style of Fig. 2 (genesis black, consensus dark gray, tips light
// gray).
//
// Build & run:  ./build/examples/tangle_explorer [--dot tangle.dot]
//               dot -Tpng tangle.dot -o tangle.png
#include <fstream>
#include <iostream>

#include "core/reference.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "tangle/dot_export.hpp"
#include "tangle/view_cache.hpp"

int main(int argc, char** argv) {
  using namespace tanglefl;

  ArgParser args(argc, argv);
  const auto rounds = static_cast<std::size_t>(
      args.get_int("rounds", 8, "rounds of training to ledger"));
  const std::string dot_path =
      args.get_string("dot", "tangle.dot", "Graphviz output path");
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42, "master seed"));
  if (args.should_exit()) return args.help_requested() ? 0 : 1;

  set_log_level(LogLevel::kWarn);

  data::FemnistSynthConfig data_config;
  data_config.num_users = 12;
  data_config.num_classes = 4;
  data_config.image_size = 10;
  data_config.mean_samples_per_user = 20.0;
  data_config.seed = seed;
  const data::FederatedDataset dataset = data::make_femnist_synth(data_config);

  nn::ImageCnnConfig model_config;
  model_config.image_size = 10;
  model_config.num_classes = 4;
  const nn::ModelFactory factory = [model_config] {
    return nn::make_image_cnn(model_config);
  };

  core::SimulationConfig config;
  config.rounds = rounds;
  config.nodes_per_round = 4;
  config.eval_every = rounds;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = seed;
  core::TangleSimulation simulation(dataset, factory, config);
  for (std::uint64_t r = 1; r <= rounds; ++r) simulation.run_round(r);

  const tangle::Tangle& tangle = simulation.tangle();
  const tangle::TangleView view = tangle.view();
  std::cout << "ledger after " << rounds << " rounds: " << tangle.size()
            << " transactions, " << view.tips().size() << " tips, "
            << simulation.store().size() << " distinct payloads\n\n";

  // Consensus quantities of Section III-A, read off the view's cone cache
  // entry as the engines do.
  const auto cones = tangle::ViewCacheEntry::build(view);
  Rng rng(seed);
  const auto confidences = tangle::compute_confidences(
      view, *cones, rng, {.sample_rounds = 64, .tip_selection = {}});
  const auto ratings = cones->past_cone_sizes();

  // The Algorithm 1 priority ordering, highest first.
  std::vector<tangle::TxIndex> order(view.size());
  for (tangle::TxIndex i = 0; i < view.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](tangle::TxIndex a, tangle::TxIndex b) {
              return confidences[a] * ratings[a] >
                     confidences[b] * ratings[b];
            });

  std::cout << "top transactions by confidence x rating (Algorithm 1):\n";
  TablePrinter table(
      {"rank", "tx", "round", "publisher", "confidence", "rating", "priority"});
  for (std::size_t rank = 0; rank < std::min<std::size_t>(8, order.size());
       ++rank) {
    const tangle::TxIndex i = order[rank];
    const auto& tx = tangle.transaction(i);
    table.add_row({std::to_string(rank + 1), tangle::short_id(tx.id),
                   std::to_string(tx.round), tx.publisher,
                   format_fixed(confidences[i], 3),
                   format_fixed(ratings[i], 0),
                   format_fixed(confidences[i] * ratings[i], 2)});
  }
  table.print(std::cout);

  std::ofstream dot(dot_path);
  dot << tangle::to_dot(view);
  std::cout << "\nGraphviz rendering written to " << dot_path
            << " (render with: dot -Tpng " << dot_path << " -o tangle.png)\n";
  return 0;
}
