#include "tangle/tangle.hpp"

#include <gtest/gtest.h>

#include "tangle/model_store.hpp"

namespace tanglefl::tangle {
namespace {

/// Builds a tangle with `extra` payloads ready to attach.
struct Fixture {
  ModelStore store;
  Tangle tangle;

  Fixture() : tangle(make_genesis(store)) {}

  static Tangle make_genesis(ModelStore& store) {
    const auto added = store.add({0.0f});
    return Tangle(added.id, added.hash);
  }

  TxIndex add(std::vector<TxIndex> parents, float value, std::uint64_t round,
              std::string publisher = {}) {
    const auto added = store.add({value});
    return tangle.add_transaction(parents, added.id, added.hash, round,
                                  std::move(publisher));
  }
};

TEST(Tangle, StartsWithGenesisOnly) {
  Fixture f;
  EXPECT_EQ(f.tangle.size(), 1u);
  EXPECT_EQ(f.tangle.genesis(), 0u);
  EXPECT_TRUE(f.tangle.transaction(0).is_genesis());
  EXPECT_EQ(f.tangle.view().tips(), (std::vector<TxIndex>{0}));
}

TEST(Tangle, AddTransactionUpdatesTips) {
  Fixture f;
  const TxIndex a = f.add({0, 0}, 1.0f, 1);
  EXPECT_EQ(f.tangle.view().tips(), (std::vector<TxIndex>{a}));

  const TxIndex b = f.add({0, 0}, 2.0f, 1);
  EXPECT_EQ(f.tangle.view().tips(), (std::vector<TxIndex>{a, b}));

  const TxIndex c = f.add({a, b}, 3.0f, 2);
  EXPECT_EQ(f.tangle.view().tips(), (std::vector<TxIndex>{c}));
}

TEST(Tangle, DuplicateParentsSingleEdge) {
  Fixture f;
  const TxIndex a = f.add({0, 0}, 1.0f, 1);
  EXPECT_EQ(f.tangle.approvers(0).size(), 1u);
  EXPECT_EQ(f.tangle.parent_indices(a).size(), 2u);  // ids preserved
}

TEST(Tangle, ThreeParentTransaction) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  const TxIndex c = f.add({0}, 3.0f, 1);
  const TxIndex d = f.add({a, b, c}, 4.0f, 2);
  EXPECT_EQ(f.tangle.parent_indices(d).size(), 3u);
  EXPECT_EQ(f.tangle.view().tips(), (std::vector<TxIndex>{d}));
}

TEST(Tangle, UnknownParentThrows) {
  Fixture f;
  const auto added = f.store.add({9.0f});
  const std::vector<TxIndex> bad = {7};
  EXPECT_THROW(
      (void)f.tangle.add_transaction(bad, added.id, added.hash, 1),
      std::out_of_range);
}

TEST(Tangle, EmptyParentsThrow) {
  Fixture f;
  const auto added = f.store.add({9.0f});
  EXPECT_THROW(
      (void)f.tangle.add_transaction(std::vector<TxIndex>{}, added.id,
                                     added.hash, 1),
      std::invalid_argument);
}

TEST(Tangle, DecreasingRoundThrows) {
  Fixture f;
  f.add({0}, 1.0f, 5);
  const auto added = f.store.add({2.0f});
  const std::vector<TxIndex> parents = {0};
  EXPECT_THROW(
      (void)f.tangle.add_transaction(parents, added.id, added.hash, 4),
      std::invalid_argument);
}

TEST(Tangle, FindById) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  EXPECT_EQ(f.tangle.find(f.tangle.transaction(a).id), a);
  EXPECT_FALSE(f.tangle.find(Sha256::hash("missing")).has_value());
}

TEST(Tangle, FindCoversEveryTransaction) {
  Fixture f;
  std::vector<TxIndex> added = {0};
  for (int i = 0; i < 20; ++i) {
    added.push_back(f.add({added.back()}, static_cast<float>(i), i + 1));
  }
  for (const TxIndex i : added) {
    EXPECT_EQ(f.tangle.find(f.tangle.transaction(i).id), i);
  }
}

TEST(Tangle, FindDuplicateIdReturnsFirstIndex) {
  Fixture f;
  // Identical parents, payload hash, round, and nonce hash to the same id.
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 1.0f, 1);
  ASSERT_EQ(to_hex(f.tangle.transaction(a).id),
            to_hex(f.tangle.transaction(b).id));
  EXPECT_EQ(f.tangle.find(f.tangle.transaction(b).id), a);
}

TEST(Tangle, VisibleCountForRound) {
  Fixture f;
  f.add({0}, 1.0f, 1);
  f.add({0}, 2.0f, 1);
  f.add({0}, 3.0f, 2);
  // Round 1 participants see only genesis (round 0).
  EXPECT_EQ(f.tangle.visible_count_for_round(1), 1u);
  // Round 2 sees genesis + the two round-1 transactions.
  EXPECT_EQ(f.tangle.visible_count_for_round(2), 3u);
  EXPECT_EQ(f.tangle.visible_count_for_round(3), 4u);
}

TEST(TangleView, PrefixHidesLaterTransactions) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({a}, 2.0f, 2);
  (void)b;
  const TangleView view = f.tangle.view_prefix(2);
  EXPECT_EQ(view.size(), 2u);
  // Within the prefix, `a` has no approver, so it is a tip again.
  EXPECT_EQ(view.tips(), (std::vector<TxIndex>{a}));
}

TEST(TangleView, PastConeSizes) {
  Fixture f;
  // genesis <- a <- c, genesis <- b <- c.
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  const TxIndex c = f.add({a, b}, 3.0f, 2);
  const auto past = f.tangle.view().past_cone_sizes();
  EXPECT_EQ(past[0], 0u);
  EXPECT_EQ(past[a], 1u);  // approves genesis
  EXPECT_EQ(past[b], 1u);
  EXPECT_EQ(past[c], 3u);  // a, b, genesis
}

TEST(TangleView, FutureConeSizes) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  const TxIndex c = f.add({a, b}, 3.0f, 2);
  const auto future = f.tangle.view().future_cone_sizes();
  EXPECT_EQ(future[0], 3u);  // a, b, c all approve genesis
  EXPECT_EQ(future[a], 1u);
  EXPECT_EQ(future[b], 1u);
  EXPECT_EQ(future[c], 0u);
}

TEST(TangleView, DiamondConesCountedOnce) {
  Fixture f;
  // Diamond: a approves genesis twice over two paths; the cone must not
  // double count.
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  const TxIndex c = f.add({a, b}, 3.0f, 2);
  const TxIndex d = f.add({c, a}, 4.0f, 3);
  const auto past = f.tangle.view().past_cone_sizes();
  EXPECT_EQ(past[d], 4u);  // c, a, b, genesis
}

TEST(TangleView, ApprovesIsTransitive) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({a}, 2.0f, 2);
  const TxIndex c = f.add({b}, 3.0f, 3);
  const TangleView view = f.tangle.view();
  EXPECT_TRUE(view.approves(c, a));
  EXPECT_TRUE(view.approves(c, 0));
  EXPECT_TRUE(view.approves(c, c));  // reflexive by convention
  EXPECT_FALSE(view.approves(a, c));
}

TEST(TangleView, ApprovesBranchIsolation) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  const TxIndex b = f.add({0}, 2.0f, 1);
  const TangleView view = f.tangle.view();
  EXPECT_FALSE(view.approves(a, b));
  EXPECT_FALSE(view.approves(b, a));
}

TEST(TangleView, ConeSizesRestrictedToView) {
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1);
  f.add({a}, 2.0f, 2);  // outside the prefix below
  const TangleView view = f.tangle.view_prefix(2);
  const auto future = view.future_cone_sizes();
  EXPECT_EQ(future[0], 1u);  // only `a` is inside the view
  EXPECT_EQ(future[a], 0u);
}

TEST(Tangle, SerializeMatchesGolden) {
  // The perfbench ledger digest hashes this dump, so its bytes must not
  // move: ids, parent lists, payload hashes and handles, rounds, nonces,
  // publisher tags and parent indices, in ledger order.
  Fixture f;
  const TxIndex a = f.add({0}, 1.0f, 1, "alice");
  f.add({0, a}, 2.0f, 2, "bob");

  ByteWriter writer;
  f.tangle.serialize(writer);
  EXPECT_EQ(to_hex(Sha256::hash(writer.bytes())),
            "86bfddb6559a7adf076be2942d8b0da352ac6e2efbc0d2adb6b13878bf85a015");
}

TEST(Tangle, GenesisIdVerifiable) {
  Fixture f;
  const Transaction& genesis = f.tangle.transaction(0);
  const TransactionId expected = compute_transaction_id(
      {}, genesis.payload_hash, genesis.round, genesis.nonce);
  EXPECT_EQ(to_hex(genesis.id), to_hex(expected));
}

}  // namespace
}  // namespace tanglefl::tangle
