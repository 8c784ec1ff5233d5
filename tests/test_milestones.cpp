// Milestone pruning invariants: a milestone must be approved by every
// required tip, the frontier must only advance onto such confirmed history,
// frozen-only payloads must be released (and only those), and engines with
// pruning enabled must keep every walkable quantity inside the live window.
#include "tangle/milestones.hpp"

#include <gtest/gtest.h>

#include "core/async_simulation.hpp"
#include "core/gossip_simulation.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "support/rng.hpp"
#include "tangle/tip_selection.hpp"

namespace tanglefl::tangle {
namespace {

struct Fixture {
  ModelStore store;
  Tangle tangle;

  Fixture() : tangle(make_genesis(store)) {}

  static Tangle make_genesis(ModelStore& store) {
    const auto added = store.add({0.0f});
    return Tangle(added.id, added.hash);
  }

  TxIndex add(std::vector<TxIndex> parents, float value, std::uint64_t round) {
    const auto added = store.add({value});
    return tangle.add_transaction(parents, added.id, added.hash, round);
  }

  /// 0 <- 1 <- 2 <- ... <- (count-1): a single chain, one tip.
  void grow_chain(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      add({static_cast<TxIndex>(tangle.size() - 1)}, static_cast<float>(i),
          i + 1);
    }
  }

  std::shared_ptr<const ViewCacheEntry> cones() {
    return ViewCacheEntry::build(tangle.view());
  }
};

TEST(FindMilestone, ChainPicksNewestOutsideKeepWindow) {
  Fixture f;
  f.grow_chain(9);  // indices 0..9, tip = 9
  const auto cones = f.cones();
  const std::vector<TxIndex> tips{9};
  // n = 10, keep_recent = 3 => candidates < 7; everything on the chain is
  // in the tip's past cone, so the best milestone is 6.
  EXPECT_EQ(find_milestone(*cones, tips, /*current_floor=*/0,
                           /*keep_recent=*/3),
            6u);
}

TEST(FindMilestone, RequiresCoverageByEveryTip) {
  // Fork: 0 <- 1, then 1 <- 2 and 1 <- 3 diverge into two chains. The only
  // transactions below both tips are 0 and 1.
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  TxIndex left = f.add({a}, 2.0f, 2);
  TxIndex right = f.add({a}, 3.0f, 2);
  for (std::uint64_t r = 3; r < 9; ++r) {
    left = f.add({left}, static_cast<float>(r), r);
    right = f.add({right}, static_cast<float>(r) + 0.5f, r);
  }
  const auto cones = f.cones();
  const std::vector<TxIndex> tips{left, right};
  EXPECT_EQ(find_milestone(*cones, tips, 0, /*keep_recent=*/2),
            a);  // 1: the newest common ancestor of both chains
}

TEST(FindMilestone, GuardsReturnTheCurrentFloor) {
  Fixture f;
  f.grow_chain(9);
  const auto cones = f.cones();
  const std::vector<TxIndex> tips{9};
  // No tips.
  EXPECT_EQ(find_milestone(*cones, {}, 0, 3), 0u);
  // A required tip at or below the floor (e.g. a gossip replica stuck at
  // the genesis) blocks any advance.
  const std::vector<TxIndex> stuck{0, 9};
  EXPECT_EQ(find_milestone(*cones, stuck, 0, 3), 0u);
  // Live window covers the whole tangle.
  EXPECT_EQ(find_milestone(*cones, tips, 0, /*keep_recent=*/64), 0u);
  // Too many required tips for the coverage pass.
  EXPECT_EQ(find_milestone(*cones, tips, 0, 3, /*max_required_tips=*/0), 0u);
  // Advancing from an existing floor stays monotonic.
  EXPECT_EQ(find_milestone(*cones, tips, /*current_floor=*/6, 3), 6u);
  EXPECT_EQ(find_milestone(*cones, tips, /*current_floor=*/4, 3), 6u);
}

TEST(ReleaseFrozenPayloads, ReleasesExactlyTheDeadOnes) {
  Fixture f;
  f.grow_chain(9);
  f.tangle.set_prune_floor(5);
  const std::size_t released =
      release_frozen_payloads(f.tangle, f.store, /*from=*/0);
  // The store dedupes by hash: transaction 1's {0.0f} reuses the genesis
  // payload, so transaction i holds payload i - 1 and the live window
  // [5, 10) references payloads 4..8 — exactly 0..3 are dead.
  EXPECT_EQ(released, 4u);
  for (PayloadId id = 0; id < f.store.size(); ++id) {
    EXPECT_EQ(f.store.is_released(id), id < 4) << "payload " << id;
  }
  EXPECT_THROW((void)f.store.get(0), std::logic_error);
  (void)f.store.get(4);  // live payloads stay readable
  // Idempotent: a second sweep finds nothing new.
  EXPECT_EQ(release_frozen_payloads(f.tangle, f.store, 0), 0u);
}

TEST(ReleaseFrozenPayloads, ScansOnlyTheNewlyFrozenRange) {
  // Payloads frozen by an earlier advance were settled then: a release
  // from 3 to the floor 5 looks at transactions 3 and 4 (payloads 2 and 3)
  // only.
  Fixture f;
  f.grow_chain(9);
  f.tangle.set_prune_floor(5);
  EXPECT_EQ(release_frozen_payloads(f.tangle, f.store, /*from=*/3), 2u);
  for (PayloadId id = 0; id < f.store.size(); ++id) {
    EXPECT_EQ(f.store.is_released(id), id == 2 || id == 3) << "payload " << id;
  }
  EXPECT_EQ(release_frozen_payloads(f.tangle, f.store, /*from=*/5), 0u);
  EXPECT_THROW((void)release_frozen_payloads(f.tangle, f.store, /*from=*/6),
               std::invalid_argument);
}

TEST(ReleaseFrozenPayloads, SharedPayloadSurvivesWhileReferencedLive) {
  // Transaction 3 reuses the payload of transaction 1: freezing 1 must not
  // release the payload while 3 is live.
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({a}, 2.0f, 2);
  const PayloadId shared = f.tangle.transaction(a).payload;
  const std::vector<TxIndex> parents{b};
  const TxIndex c = f.tangle.add_transaction(
      parents, shared, f.tangle.transaction(a).payload_hash, 3);
  f.add({c}, 4.0f, 4);
  f.tangle.set_prune_floor(b);
  (void)release_frozen_payloads(f.tangle, f.store, 0);
  EXPECT_FALSE(f.store.is_released(shared));
}

TEST(MilestoneTracker, TicksAtTheConfiguredInterval) {
  MilestoneConfig config;
  config.enabled = true;
  config.interval = 3;
  MilestoneTracker tracker(config);
  EXPECT_FALSE(tracker.tick());
  EXPECT_FALSE(tracker.tick());
  EXPECT_TRUE(tracker.tick());
  EXPECT_FALSE(tracker.tick());

  MilestoneTracker disabled(MilestoneConfig{});
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(disabled.tick());
}

TEST(MilestoneTracker, AdvanceFreezesAndReleases) {
  Fixture f;
  f.grow_chain(9);
  MilestoneConfig config;
  config.enabled = true;
  config.keep_recent = 3;
  MilestoneTracker tracker(config);
  EXPECT_TRUE(tracker.advance(f.tangle, f.store, *f.cones()));
  EXPECT_EQ(f.tangle.prune_floor(), 6u);
  EXPECT_TRUE(f.store.is_released(0));
  EXPECT_FALSE(f.store.is_released(6));
  // Nothing new below the keep window: no further advance.
  EXPECT_FALSE(tracker.advance(f.tangle, f.store, *f.cones()));
}

TEST(MilestoneTracker, EveryAdvanceReleasesWhatNoLiveTransactionReferences) {
  // A walked ledger with pruning on, grown as the engines grow one. Payload
  // values repeat, so the store dedupes transactions on both sides of the
  // floor onto shared payloads. After every advance the released set must
  // equal a sweep over the whole store: exactly the payloads that no
  // transaction at or above the floor references.
  Fixture f;
  ViewCache cache(4);
  MilestoneConfig config;
  config.enabled = true;
  config.interval = 2;
  config.keep_recent = 24;
  MilestoneTracker tracker(config);
  const Rng master(23);
  std::size_t advances = 0;
  for (std::uint64_t round = 1; round <= 60; ++round) {
    const auto cones = cache.get(
        f.tangle.view_prefix(f.tangle.visible_count_for_round(round)));
    Rng rng = master.split(round);
    std::vector<std::vector<TxIndex>> parents;
    for (int p = 0; p < 4; ++p) {
      parents.push_back(select_tips(*cones, 2, rng, {}));
    }
    for (int p = 0; p < 4; ++p) {
      f.add(parents[p], static_cast<float>((round * 4 + p) % 11), round);
    }
    if (!tracker.tick() ||
        !tracker.advance(f.tangle, f.store, *cache.get(f.tangle.view()))) {
      continue;
    }
    ++advances;
    std::vector<bool> live(f.store.size(), false);
    for (TxIndex i = f.tangle.prune_floor(); i < f.tangle.size(); ++i) {
      live[f.tangle.transaction(i).payload] = true;
    }
    for (PayloadId id = 0; id < live.size(); ++id) {
      EXPECT_EQ(f.store.is_released(id), !live[id])
          << "payload " << id << " after advance " << advances;
    }
  }
  EXPECT_GE(advances, 3u);
}

TEST(MilestoneTracker, FloorLimitClampsTheAdvance) {
  Fixture f;
  f.grow_chain(9);
  MilestoneConfig config;
  config.enabled = true;
  config.keep_recent = 3;
  MilestoneTracker tracker(config);
  const auto cones = f.cones();
  const std::vector<TxIndex> tips(cones->tips().begin(),
                                  cones->tips().end());
  EXPECT_TRUE(
      tracker.advance(f.tangle, f.store, *cones, tips, /*floor_limit=*/4));
  EXPECT_EQ(f.tangle.prune_floor(), 4u);
}

// --- engine integration -------------------------------------------------

data::FederatedDataset tiny_dataset() {
  data::FemnistSynthConfig config;
  config.num_users = 8;
  config.num_classes = 3;
  config.image_size = 8;
  config.seed = 4;
  return data::make_femnist_synth(config);
}

nn::ModelFactory tiny_factory() {
  nn::ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.conv1_channels = 2;
  config.conv2_channels = 4;
  config.hidden = 8;
  return [config] { return nn::make_image_cnn(config); };
}

void expect_live_invariants(const Tangle& tangle) {
  const TxIndex floor = tangle.prune_floor();
  for (const TxIndex tip : tangle.view().tips()) {
    EXPECT_GE(tip, floor);
  }
}

TEST(EnginePruning, SimulationRunsAndKeepsTipsLive) {
  const auto dataset = tiny_dataset();
  core::SimulationConfig config;
  config.rounds = 14;
  config.nodes_per_round = 4;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 9;
  config.prune.enabled = true;
  config.prune.interval = 2;
  config.prune.keep_recent = 6;
  core::TangleSimulation sim(dataset, tiny_factory(), config);
  const core::RunResult result = sim.run();
  EXPECT_FALSE(result.history.empty());
  EXPECT_GT(sim.tangle().prune_floor(), 0u);
  expect_live_invariants(sim.tangle());
  // Something frozen-only was actually garbage-collected.
  std::size_t released = 0;
  for (PayloadId id = 0; id < sim.store().size(); ++id) {
    released += sim.store().is_released(id) ? 1 : 0;
  }
  EXPECT_GT(released, 0u);
}

TEST(EnginePruning, SimulationIsDeterministicUnderPruning) {
  const auto dataset = tiny_dataset();
  core::SimulationConfig config;
  config.rounds = 10;
  config.nodes_per_round = 4;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 9;
  config.prune.enabled = true;
  config.prune.interval = 2;
  config.prune.keep_recent = 6;
  core::TangleSimulation a(dataset, tiny_factory(), config);
  core::TangleSimulation b(dataset, tiny_factory(), config);
  const core::RunResult ra = a.run();
  const core::RunResult rb = b.run();
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i].accuracy, rb.history[i].accuracy);
    EXPECT_EQ(ra.history[i].loss, rb.history[i].loss);
    EXPECT_EQ(ra.history[i].tangle_size, rb.history[i].tangle_size);
    EXPECT_EQ(ra.history[i].tip_count, rb.history[i].tip_count);
  }
  EXPECT_EQ(a.tangle().prune_floor(), b.tangle().prune_floor());
}

TEST(EnginePruning, DisabledPruningMatchesDefaultConfigExactly) {
  const auto dataset = tiny_dataset();
  core::SimulationConfig config;
  config.rounds = 8;
  config.nodes_per_round = 4;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 9;
  core::TangleSimulation baseline(dataset, tiny_factory(), config);

  core::SimulationConfig explicit_off = config;
  explicit_off.prune.enabled = false;
  explicit_off.prune.interval = 1;
  explicit_off.prune.keep_recent = 1;
  core::TangleSimulation off(dataset, tiny_factory(), explicit_off);

  const core::RunResult ra = baseline.run();
  const core::RunResult rb = off.run();
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i].accuracy, rb.history[i].accuracy);
    EXPECT_EQ(ra.history[i].loss, rb.history[i].loss);
  }
  EXPECT_EQ(off.tangle().prune_floor(), 0u);
}

TEST(EnginePruning, AsyncRunCompletesWithPruning) {
  const auto dataset = tiny_dataset();
  core::AsyncSimulationConfig config;
  config.duration_seconds = 30.0;
  config.wake_rate_per_node = 0.4;
  config.mean_training_seconds = 0.5;
  config.eval_every_seconds = 5.0;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 11;
  config.prune.enabled = true;
  config.prune.interval = 1;
  config.prune.keep_recent = 6;
  core::AsyncTangleSimulation sim(dataset, tiny_factory(), config);
  const core::RunResult result = sim.run();
  EXPECT_FALSE(result.history.empty());
  expect_live_invariants(sim.tangle());
  // The floor never outruns the slowest horizon: every transaction at or
  // above it would be visible to a wake at the final instant.
  const TxIndex floor = sim.tangle().prune_floor();
  EXPECT_LT(floor, sim.tangle().size());
}

TEST(EnginePruning, GossipRunCompletesWithPruning) {
  const auto dataset = tiny_dataset();
  core::GossipConfig config;
  config.rounds = 14;
  config.nodes_per_round = 4;
  config.peers_per_node = 3;
  config.gossip_exchanges = 2;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 13;
  config.prune.enabled = true;
  config.prune.interval = 2;
  config.prune.keep_recent = 6;
  core::GossipSimulation sim(dataset, tiny_factory(), config);
  const core::RunResult result = sim.run();
  EXPECT_FALSE(result.history.empty());
  expect_live_invariants(sim.tangle());
}

}  // namespace
}  // namespace tanglefl::tangle
