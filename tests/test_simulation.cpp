#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/reference.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "support/serialize.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::core {
namespace {

data::FederatedDataset small_dataset(std::uint64_t seed = 3) {
  data::FemnistSynthConfig config;
  config.num_users = 10;
  config.num_classes = 3;
  config.image_size = 8;
  config.mean_samples_per_user = 15.0;
  config.seed = seed;
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

SimulationConfig fast_config(std::size_t rounds = 4) {
  SimulationConfig config;
  config.rounds = rounds;
  config.nodes_per_round = 4;
  config.eval_every = 2;
  config.eval_nodes_fraction = 0.5;
  config.node.training.epochs = 1;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 1;
  return config;
}

TEST(Simulation, TangleGrowsAcrossRounds) {
  const auto dataset = small_dataset();
  TangleSimulation sim(dataset, small_factory(), fast_config());
  EXPECT_EQ(sim.tangle().size(), 1u);  // genesis
  sim.run_round(1);
  const std::size_t after_one = sim.tangle().size();
  EXPECT_GT(after_one, 1u);
  sim.run_round(2);
  EXPECT_GT(sim.tangle().size(), after_one);
}

TEST(Simulation, RoundVisibilityBarrier) {
  // Every transaction may only approve transactions from strictly earlier
  // rounds (Section IV: published transactions become visible in the next
  // round).
  const auto dataset = small_dataset();
  TangleSimulation sim(dataset, small_factory(), fast_config(5));
  for (std::uint64_t r = 1; r <= 5; ++r) sim.run_round(r);

  const tangle::Tangle& tangle = sim.tangle();
  for (tangle::TxIndex i = 1; i < tangle.size(); ++i) {
    for (const tangle::TxIndex p : tangle.parent_indices(i)) {
      EXPECT_LT(tangle.transaction(p).round, tangle.transaction(i).round);
    }
  }
}

TEST(Simulation, DeterministicAcrossRuns) {
  const auto dataset = small_dataset();
  TangleSimulation a(dataset, small_factory(), fast_config());
  TangleSimulation b(dataset, small_factory(), fast_config());
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  ASSERT_EQ(a.tangle().size(), b.tangle().size());
  for (tangle::TxIndex i = 0; i < a.tangle().size(); ++i) {
    EXPECT_EQ(to_hex(a.tangle().transaction(i).id),
              to_hex(b.tangle().transaction(i).id));
  }
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.history[i].accuracy, rb.history[i].accuracy);
  }
}

TEST(Simulation, DeterministicAcrossThreadCounts) {
  const auto dataset = small_dataset();
  SimulationConfig one = fast_config();
  one.threads = 1;
  SimulationConfig four = fast_config();
  four.threads = 4;
  TangleSimulation a(dataset, small_factory(), one);
  TangleSimulation b(dataset, small_factory(), four);
  (void)a.run();
  (void)b.run();
  ASSERT_EQ(a.tangle().size(), b.tangle().size());
  for (tangle::TxIndex i = 0; i < a.tangle().size(); ++i) {
    EXPECT_EQ(to_hex(a.tangle().transaction(i).id),
              to_hex(b.tangle().transaction(i).id));
  }
}

TEST(Simulation, RobustPoisonedRunDeterministicAcrossThreadCounts) {
  // The femnist_robust shape: robust tip selection, random poison and users
  // of unequal size. Lanes claim a round's steps by sample count, which is
  // not slot order here, and random-poison steps (sample count 0) go last.
  data::FemnistSynthConfig data_config;
  data_config.num_users = 12;
  data_config.num_classes = 3;
  data_config.image_size = 8;
  data_config.mean_samples_per_user = 15.0;
  data_config.samples_log_sigma = 1.0;
  data_config.seed = 5;
  const auto dataset = data::make_femnist_synth(data_config);
  bool unequal = false;
  for (std::size_t u = 1; u < dataset.num_users(); ++u) {
    unequal |= dataset.user(u).total_samples() !=
               dataset.user(0).total_samples();
  }
  ASSERT_TRUE(unequal);

  const auto run = [&](std::size_t threads) {
    SimulationConfig config = fast_config(5);
    config.nodes_per_round = 6;
    config.node.num_tips = 2;
    config.node.tip_sample_size = 4;
    config.attack = AttackType::kRandomPoison;
    config.malicious_fraction = 0.3;
    config.attack_start_round = 2;
    config.threads = threads;
    TangleSimulation sim(dataset, small_factory(), config);
    (void)sim.run();
    std::vector<std::string> ids;
    std::size_t poisoned = 0;
    for (tangle::TxIndex i = 0; i < sim.tangle().size(); ++i) {
      ids.push_back(to_hex(sim.tangle().transaction(i).id));
      poisoned += sim.tangle().transaction(i).publisher == "malicious";
    }
    ByteWriter writer;
    sim.tangle().serialize(writer);
    return std::make_tuple(ids, writer.take(), poisoned);
  };
  const auto [ids, bytes, poisoned] = run(1);
  EXPECT_GT(poisoned, 0u);
  for (const std::size_t threads : {2u, 4u}) {
    const auto [other_ids, other_bytes, other_poisoned] = run(threads);
    EXPECT_EQ(other_ids, ids) << "threads " << threads;
    EXPECT_TRUE(other_bytes == bytes) << "threads " << threads;
    EXPECT_EQ(other_poisoned, poisoned) << "threads " << threads;
  }
}

TEST(Simulation, DeterministicAcrossKernelPoolSizes) {
  // The intra-node GEMM pool partitions output rows only, so node training
  // — and therefore the whole ledger — must be bit-identical whether the
  // kernels run serially or on a shared pool, including concurrently with
  // multi-threaded node dispatch.
  const auto dataset = small_dataset();
  SimulationConfig serial = fast_config();
  serial.kernel_threads = 0;
  SimulationConfig pooled = fast_config();
  pooled.threads = 2;
  pooled.kernel_threads = 2;
  TangleSimulation a(dataset, small_factory(), serial);
  TangleSimulation b(dataset, small_factory(), pooled);
  (void)a.run();
  (void)b.run();
  ASSERT_EQ(a.tangle().size(), b.tangle().size());
  for (tangle::TxIndex i = 0; i < a.tangle().size(); ++i) {
    EXPECT_EQ(to_hex(a.tangle().transaction(i).id),
              to_hex(b.tangle().transaction(i).id));
  }
}

TEST(Simulation, ViewCacheBoundsConeRecomputesPerRound) {
  // The point of the shared cache: cone recomputations scale with rounds,
  // not rounds x participants. One build (2 passes) per training round
  // plus 2 per cached evaluation view, against ~3 per participant before.
  const auto dataset = small_dataset();
  obs::MetricsRegistry::global().reset();
  SimulationConfig config = fast_config(4);
  TangleSimulation sim(dataset, small_factory(), config);
  (void)sim.run();
  const std::uint64_t recomputes =
      obs::MetricsRegistry::global()
          .counter("tangle.cone_recompute.count")
          .value();
  const std::uint64_t evals = 2;  // rounds 2 and 4
  EXPECT_LE(recomputes, 2 * (config.rounds + 2 * evals));
  EXPECT_LT(recomputes, config.rounds * config.nodes_per_round);
  EXPECT_GT(obs::MetricsRegistry::global()
                .counter("tangle.view_cache.hit")
                .value(),
            0u);
}

TEST(Simulation, DeterministicMetricsSnapshot) {
  // Two same-seed runs must produce byte-identical deterministic metric
  // snapshots (the instrumentation layer's determinism contract), and the
  // snapshot must also be independent of the thread count.
  const auto dataset = small_dataset();
  const auto snapshot_for = [&](std::size_t threads) {
    obs::MetricsRegistry::global().reset();
    SimulationConfig config = fast_config();
    config.threads = threads;
    TangleSimulation sim(dataset, small_factory(), config);
    (void)sim.run();
    return obs::MetricsRegistry::global()
        .snapshot(obs::SnapshotKind::kDeterministic)
        .to_json();
  };
  const std::string first = snapshot_for(1);
  const std::string second = snapshot_for(1);
  const std::string threaded = snapshot_for(4);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, threaded);
  EXPECT_NE(first.find("sim.rounds"), std::string::npos);
  EXPECT_NE(first.find("tangle.tip_walk.length"), std::string::npos);
}

TEST(Simulation, RoundRecordCarriesPublishCounts) {
  // Regression for the run() loop dropping per-round publish counts: the
  // cumulative published/suppressed tally and ledger size must reach the
  // evaluation records.
  const auto dataset = small_dataset();
  SimulationConfig config = fast_config(4);
  config.eval_every = 2;
  TangleSimulation sim(dataset, small_factory(), config);
  const RunResult result = sim.run();
  ASSERT_EQ(result.history.size(), 2u);
  const RoundRecord& mid = result.history.front();
  const RoundRecord& last = result.history.back();
  EXPECT_GT(last.published_cumulative, 0u);
  EXPECT_GE(last.published_cumulative, mid.published_cumulative);
  EXPECT_GE(last.suppressed_cumulative, mid.suppressed_cumulative);
  // Every participant either published or was suppressed.
  EXPECT_EQ(last.published_cumulative + last.suppressed_cumulative,
            4u * config.nodes_per_round);
  EXPECT_GT(last.ledger_bytes, 0u);
  EXPECT_EQ(last.ledger_bytes % sizeof(float), 0u);
}

TEST(Simulation, SeedChangesOutcome) {
  const auto dataset = small_dataset();
  SimulationConfig other = fast_config();
  other.seed = 99;
  TangleSimulation a(dataset, small_factory(), fast_config());
  TangleSimulation b(dataset, small_factory(), other);
  (void)a.run();
  (void)b.run();
  EXPECT_NE(to_hex(a.tangle().transaction(0).id),
            to_hex(b.tangle().transaction(0).id));
}

TEST(Simulation, EvaluateProducesPopulatedRecord) {
  const auto dataset = small_dataset();
  TangleSimulation sim(dataset, small_factory(), fast_config());
  sim.run_round(1);
  const RoundRecord record = sim.evaluate(1);
  EXPECT_EQ(record.round, 1u);
  EXPECT_GT(record.tangle_size, 0u);
  EXPECT_GT(record.tip_count, 0u);
  EXPECT_GE(record.accuracy, 0.0);
  EXPECT_LE(record.accuracy, 1.0);
  EXPECT_GT(record.loss, 0.0);
}

TEST(Simulation, RunReturnsHistoryAtCadence) {
  const auto dataset = small_dataset();
  SimulationConfig config = fast_config(6);
  config.eval_every = 2;
  TangleSimulation sim(dataset, small_factory(), config);
  const RunResult result = sim.run();
  ASSERT_EQ(result.history.size(), 3u);  // rounds 2, 4, 6
  EXPECT_EQ(result.history[0].round, 2u);
  EXPECT_EQ(result.history[2].round, 6u);
}

TEST(Simulation, NoMaliciousUsersWithoutAttack) {
  const auto dataset = small_dataset();
  SimulationConfig config = fast_config();
  config.malicious_fraction = 0.5;  // ignored without an attack type
  TangleSimulation sim(dataset, small_factory(), config);
  EXPECT_TRUE(sim.malicious_users().empty());
}

TEST(Simulation, MaliciousFractionSetsUserCount) {
  const auto dataset = small_dataset();
  SimulationConfig config = fast_config();
  config.attack = AttackType::kRandomPoison;
  config.malicious_fraction = 0.3;
  TangleSimulation sim(dataset, small_factory(), config);
  EXPECT_EQ(sim.malicious_users().size(), 3u);  // 30% of 10
}

TEST(Simulation, AttackRespectsStartRound) {
  const auto dataset = small_dataset();
  SimulationConfig config = fast_config(6);
  config.attack = AttackType::kRandomPoison;
  config.malicious_fraction = 0.5;
  config.attack_start_round = 4;
  TangleSimulation sim(dataset, small_factory(), config);
  (void)sim.run();

  for (tangle::TxIndex i = 1; i < sim.tangle().size(); ++i) {
    const auto& tx = sim.tangle().transaction(i);
    if (tx.publisher == "malicious") {
      EXPECT_GE(tx.round, 4u);
    }
  }
}

TEST(Simulation, RandomPoisonAttackInjectsTransactions) {
  const auto dataset = small_dataset();
  SimulationConfig config = fast_config(4);
  config.attack = AttackType::kRandomPoison;
  config.malicious_fraction = 0.5;
  config.attack_start_round = 1;
  TangleSimulation sim(dataset, small_factory(), config);
  (void)sim.run();

  std::size_t malicious = 0;
  for (tangle::TxIndex i = 1; i < sim.tangle().size(); ++i) {
    if (sim.tangle().transaction(i).publisher == "malicious") ++malicious;
  }
  EXPECT_GT(malicious, 0u);
}

TEST(Simulation, ConsensusParamsHaveModelSize) {
  const auto dataset = small_dataset();
  TangleSimulation sim(dataset, small_factory(), fast_config());
  sim.run_round(1);
  const tangle::TangleView view = sim.tangle().view();
  tangle::ViewCache cones(1);
  Rng rng(1);
  EXPECT_EQ(choose_reference(view, sim.store(), *cones.get(view), rng,
                             ReferenceConfig{})
                .params.size(),
            small_factory()().parameter_count());
}

TEST(Simulation, AutoConfidenceSamplesFollowNodesPerRound) {
  // Paper (Sec. IV): confidence sampling runs one walk per active node, so
  // the configured 1000 sample rounds are overridden by nodes_per_round.
  const auto dataset = small_dataset();
  SimulationConfig config = fast_config(2);
  config.nodes_per_round = 3;
  config.node.reference.confidence.sample_rounds = 1000;
  const obs::Counter& walks =
      obs::MetricsRegistry::global().counter("tangle.confidence.sample_walks");
  const std::uint64_t before = walks.value();
  TangleSimulation sim(dataset, small_factory(), config);
  (void)sim.run();
  const std::uint64_t sampled = walks.value() - before;
  EXPECT_GT(sampled, 0u);
  EXPECT_LT(sampled, 1000u);
  EXPECT_EQ(sampled % 3, 0u);
}

TEST(RunResult, RoundsToAccuracy) {
  RunResult result;
  result.history = {{10, 0.3}, {20, 0.6}, {30, 0.8}};
  EXPECT_EQ(result.rounds_to_accuracy(0.5), 20);
  EXPECT_EQ(result.rounds_to_accuracy(0.9), -1);
  EXPECT_DOUBLE_EQ(result.final_accuracy(), 0.8);
}

}  // namespace
}  // namespace tanglefl::core
