#include "tangle/transaction.hpp"

#include <gtest/gtest.h>

namespace tanglefl::tangle {
namespace {

Sha256Digest digest_of(std::string_view s) { return Sha256::hash(s); }

TEST(Transaction, IdDependsOnParents) {
  const Sha256Digest payload = digest_of("payload");
  const std::vector<TransactionId> parents_a = {digest_of("p1"),
                                                digest_of("p2")};
  const std::vector<TransactionId> parents_b = {digest_of("p1"),
                                                digest_of("p3")};
  EXPECT_NE(to_hex(compute_transaction_id(parents_a, payload, 1, 0)),
            to_hex(compute_transaction_id(parents_b, payload, 1, 0)));
}

TEST(Transaction, IdDependsOnPayload) {
  const std::vector<TransactionId> parents = {digest_of("p1")};
  EXPECT_NE(
      to_hex(compute_transaction_id(parents, digest_of("a"), 1, 0)),
      to_hex(compute_transaction_id(parents, digest_of("b"), 1, 0)));
}

TEST(Transaction, IdDependsOnRoundAndNonce) {
  const std::vector<TransactionId> parents = {digest_of("p")};
  const Sha256Digest payload = digest_of("payload");
  EXPECT_NE(to_hex(compute_transaction_id(parents, payload, 1, 0)),
            to_hex(compute_transaction_id(parents, payload, 2, 0)));
  EXPECT_NE(to_hex(compute_transaction_id(parents, payload, 1, 0)),
            to_hex(compute_transaction_id(parents, payload, 1, 1)));
}

TEST(Transaction, IdDependsOnParentOrder) {
  const Sha256Digest payload = digest_of("payload");
  const std::vector<TransactionId> ab = {digest_of("a"), digest_of("b")};
  const std::vector<TransactionId> ba = {digest_of("b"), digest_of("a")};
  EXPECT_NE(to_hex(compute_transaction_id(ab, payload, 1, 0)),
            to_hex(compute_transaction_id(ba, payload, 1, 0)));
}

TEST(Transaction, IdIsDeterministic) {
  const std::vector<TransactionId> parents = {digest_of("p")};
  const Sha256Digest payload = digest_of("payload");
  EXPECT_EQ(to_hex(compute_transaction_id(parents, payload, 3, 7)),
            to_hex(compute_transaction_id(parents, payload, 3, 7)));
}

TEST(Transaction, PublisherExcludedFromId) {
  Transaction a, b;
  a.parents = {digest_of("p")};
  b.parents = {digest_of("p")};
  a.payload_hash = b.payload_hash = digest_of("payload");
  a.publisher = "alice";
  b.publisher = "bob";
  EXPECT_EQ(to_hex(compute_transaction_id(a.parents, a.payload_hash, 0, 0)),
            to_hex(compute_transaction_id(b.parents, b.payload_hash, 0, 0)));
}

TEST(Transaction, GenesisDetection) {
  Transaction tx;
  tx.payload_hash = digest_of("genesis-model");
  tx.id = compute_transaction_id({}, tx.payload_hash, 0, 0);
  tx.parents = {tx.id};
  EXPECT_TRUE(tx.is_genesis());

  tx.parents = {digest_of("other")};
  EXPECT_FALSE(tx.is_genesis());
}

TEST(Transaction, ShortIdIsPrefix) {
  const TransactionId id = digest_of("x");
  EXPECT_EQ(short_id(id), to_hex(id).substr(0, 8));
}

}  // namespace
}  // namespace tanglefl::tangle
