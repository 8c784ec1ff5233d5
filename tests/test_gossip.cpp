#include "core/gossip_simulation.hpp"

#include <gtest/gtest.h>

#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"

namespace tanglefl::core {
namespace {

data::FederatedDataset small_dataset() {
  data::FemnistSynthConfig config;
  config.num_users = 12;
  config.num_classes = 3;
  config.image_size = 8;
  config.mean_samples_per_user = 15.0;
  config.seed = 3;
  return data::make_femnist_synth(config);
}

nn::ModelFactory small_factory() {
  nn::ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.conv1_channels = 2;
  config.conv2_channels = 4;
  config.hidden = 8;
  return [config] { return nn::make_image_cnn(config); };
}

GossipConfig fast_config() {
  GossipConfig config;
  config.rounds = 8;
  config.nodes_per_round = 4;
  config.peers_per_node = 3;
  config.gossip_exchanges = 2;
  config.eval_every = 4;
  config.eval_nodes_fraction = 0.5;
  config.node.training.epochs = 1;
  config.node.training.sgd.learning_rate = 0.05;
  config.node.reference.confidence.sample_rounds = 6;
  config.seed = 7;
  return config;
}

TEST(MaskedView, RejectsNonClosedMembership) {
  tangle::ModelStore store;
  const auto genesis = store.add({0.0f});
  tangle::Tangle tangle(genesis.id, genesis.hash);
  const auto a = store.add({1.0f});
  const tangle::TxIndex ai = tangle.add_transaction(
      std::vector<tangle::TxIndex>{0}, a.id, a.hash, 1);
  const auto b = store.add({2.0f});
  const tangle::TxIndex bi = tangle.add_transaction(
      std::vector<tangle::TxIndex>{ai}, b.id, b.hash, 2);

  // b without a violates ancestor closure.
  std::vector<bool> bad(tangle.size(), false);
  bad[0] = true;
  bad[bi] = true;
  EXPECT_THROW((void)tangle::TangleView(tangle, bad), std::invalid_argument);

  // Genesis must be present.
  std::vector<bool> no_genesis(tangle.size(), false);
  no_genesis[ai] = true;
  EXPECT_THROW((void)tangle::TangleView(tangle, no_genesis),
               std::invalid_argument);
}

TEST(MaskedView, TipsAndConesRespectMask) {
  tangle::ModelStore store;
  const auto genesis = store.add({0.0f});
  tangle::Tangle tangle(genesis.id, genesis.hash);
  const auto pa = store.add({1.0f});
  const tangle::TxIndex a = tangle.add_transaction(
      std::vector<tangle::TxIndex>{0}, pa.id, pa.hash, 1);
  const auto pb = store.add({2.0f});
  const tangle::TxIndex b = tangle.add_transaction(
      std::vector<tangle::TxIndex>{0}, pb.id, pb.hash, 1);
  const auto pc = store.add({3.0f});
  (void)tangle.add_transaction(std::vector<tangle::TxIndex>{a, b}, pc.id,
                               pc.hash, 2);

  // Replica that has not yet received b or c.
  std::vector<bool> mask(tangle.size(), false);
  mask[0] = true;
  mask[a] = true;
  const tangle::TangleView view(tangle, mask);
  EXPECT_EQ(view.member_count(), 2u);
  EXPECT_EQ(view.tips(), (std::vector<tangle::TxIndex>{a}));
  const auto future = view.future_cone_sizes();
  EXPECT_EQ(future[0], 1u);  // only a
  const auto past = view.past_cone_sizes();
  EXPECT_EQ(past[a], 1u);
}

TEST(Gossip, CoverageStartsLowAndGrows) {
  const auto dataset = small_dataset();
  GossipConfig config = fast_config();
  config.gossip_exchanges = 1;
  config.max_transfer = 4;
  GossipSimulation sim(dataset, small_factory(), config);
  sim.run_round(1);
  const double early = sim.mean_coverage();
  for (std::uint64_t r = 2; r <= 8; ++r) sim.run_round(r);
  // After several gossip rounds nodes know a solid share of the ledger.
  EXPECT_GT(sim.mean_coverage(), 0.3);
  EXPECT_LE(early, 1.0);
}

TEST(Gossip, FullGossipReachesFullCoverage) {
  const auto dataset = small_dataset();
  GossipConfig config = fast_config();
  config.gossip_exchanges = 6;  // plenty of anti-entropy
  config.max_transfer = 0;      // unbounded transfers
  GossipSimulation sim(dataset, small_factory(), config);
  for (std::uint64_t r = 1; r <= 6; ++r) sim.run_round(r);
  // Everything except the very last round's publishes has propagated.
  EXPECT_GT(sim.mean_coverage(), 0.8);
}

TEST(Gossip, ReplicasAreAncestorClosed) {
  const auto dataset = small_dataset();
  GossipConfig config = fast_config();
  config.max_transfer = 3;  // aggressive truncation stresses closure
  GossipSimulation sim(dataset, small_factory(), config);
  for (std::uint64_t r = 1; r <= 6; ++r) {
    sim.run_round(r);
    for (std::size_t u = 0; u < dataset.num_users(); ++u) {
      // replica_view throws if closure is violated.
      EXPECT_NO_THROW((void)sim.replica_view(u));
    }
  }
}

TEST(Gossip, PullFailuresSlowPropagation) {
  const auto dataset = small_dataset();
  GossipConfig reliable = fast_config();
  GossipConfig flaky = fast_config();
  flaky.pull_failure = 0.7;

  GossipSimulation a(dataset, small_factory(), reliable);
  GossipSimulation b(dataset, small_factory(), flaky);
  for (std::uint64_t r = 1; r <= 6; ++r) {
    a.run_round(r);
    b.run_round(r);
  }
  EXPECT_GT(b.stats().failed_pulls, 0u);
  EXPECT_LE(b.mean_coverage(), a.mean_coverage() + 0.05);
}

TEST(Gossip, DeterministicInSeed) {
  const auto dataset = small_dataset();
  GossipSimulation a(dataset, small_factory(), fast_config());
  GossipSimulation b(dataset, small_factory(), fast_config());
  (void)a.run();
  (void)b.run();
  ASSERT_EQ(a.tangle().size(), b.tangle().size());
  for (tangle::TxIndex i = 0; i < a.tangle().size(); ++i) {
    EXPECT_EQ(a.tangle().transaction(i).id, b.tangle().transaction(i).id);
  }
}

TEST(Gossip, TopologyHasRequestedFanout) {
  const auto dataset = small_dataset();
  GossipSimulation sim(dataset, small_factory(), fast_config());
  for (std::size_t u = 0; u < dataset.num_users(); ++u) {
    const auto& peers = sim.peers(u);
    EXPECT_EQ(peers.size(), 3u);
    for (const std::size_t p : peers) {
      EXPECT_NE(p, u);
      EXPECT_LT(p, dataset.num_users());
    }
  }
}

TEST(Gossip, RunProducesHistoryAndLearns) {
  const auto dataset = small_dataset();
  GossipConfig config = fast_config();
  config.rounds = 20;
  config.eval_every = 20;
  const RunResult result =
      run_gossip_tangle_learning(dataset, small_factory(), config);
  ASSERT_FALSE(result.history.empty());
  // 3-class problem: must beat chance even on partial replicas.
  EXPECT_GT(result.final_accuracy(), 0.34);
}

}  // namespace
}  // namespace tanglefl::core
