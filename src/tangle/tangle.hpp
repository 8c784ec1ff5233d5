// The tangle DAG (Section II-C): vertices are transactions, directed edges
// are approvals of parent transactions. Transactions are append-only and
// stored in insertion order, which the simulation aligns with round order —
// so "the ledger as visible to a node in round r" is simply a prefix of the
// transaction vector (a TangleView).
//
// The two graph quantities the learning tangle needs are
//   * past cone size  — how many transactions a given transaction directly
//     or indirectly approves (the *rating* of Algorithm 1), and
//   * future cone size — how many transactions directly or indirectly
//     approve it (the *cumulative weight* steering the random walk).
// Both are computed exactly with bitset reachability over the view prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/serialize.hpp"
#include "tangle/transaction.hpp"

namespace tanglefl::tangle {

class Tangle;

/// A consistent subset of the tangle. Two forms exist:
///   * a *prefix* view — the first `count` transactions, which models the
///     round-visibility barrier of Section IV (and publish-time horizons
///     in the asynchronous engine), and
///   * a *masked* view — an arbitrary ancestor-closed membership set,
///     which models a gossip replica that has only received part of the
///     ledger. Ancestor closure (every member's parents are members) is
///     the ledger "solidification" rule: a node never accepts a
///     transaction before its entire past cone; the constructor enforces
///     it.
/// All consensus queries (tips, cones, walks) run against a view.
class TangleView {
 public:
  TangleView(const Tangle& tangle, std::size_t count);

  /// Masked view over `membership` (indexed by TxIndex; missing trailing
  /// entries count as absent). The genesis must be a member and the set
  /// must be ancestor-closed; throws std::invalid_argument otherwise.
  TangleView(const Tangle& tangle, std::vector<bool> membership);

  const Tangle& tangle() const noexcept { return *tangle_; }
  /// Upper bound of member indices (prefix length for prefix views).
  std::size_t size() const noexcept { return count_; }
  /// Number of member transactions (== size() for prefix views).
  std::size_t member_count() const noexcept { return members_; }
  bool contains(TxIndex index) const noexcept {
    return index < count_ && (mask_.empty() || mask_[index]);
  }

  /// Transactions in this view with no approver inside the view.
  std::vector<TxIndex> tips() const;

  /// Direct approvers of `index` that lie inside the view.
  std::vector<TxIndex> approvers(TxIndex index) const;

  /// Number of transactions each transaction directly or indirectly
  /// approves (excluding itself), indexed by TxIndex. One BitMatrix pass;
  /// consensus queries read cones from a ViewCacheEntry instead, so this
  /// and future_cone_sizes() serve the invariant audit and the tests as
  /// an independent reference.
  std::vector<std::uint32_t> past_cone_sizes() const;

  /// Number of transactions directly or indirectly approving each
  /// transaction (excluding itself), restricted to the view.
  std::vector<std::uint32_t> future_cone_sizes() const;

  /// True if `ancestor` is in the past cone of `descendant` (or equal).
  bool approves(TxIndex descendant, TxIndex ancestor) const;

 private:
  const Tangle* tangle_;
  std::size_t count_;
  std::size_t members_;
  std::vector<bool> mask_;  // empty = prefix view
};

class Tangle {
 public:
  /// Creates a tangle containing only the genesis transaction, whose
  /// payload is the (randomly initialized) starting model.
  explicit Tangle(PayloadId genesis_payload,
                  const Sha256Digest& genesis_payload_hash);

  /// Appends a transaction approving `parents` (at least one; duplicates
  /// are collapsed for the approval edges but preserved in the id
  /// preimage). Returns its index. Parents must already be present.
  TxIndex add_transaction(std::span<const TxIndex> parents, PayloadId payload,
                          const Sha256Digest& payload_hash,
                          std::uint64_t round, std::string publisher = {});

  std::size_t size() const noexcept { return transactions_.size(); }
  const Transaction& transaction(TxIndex index) const {
    return transactions_.at(index);
  }
  const std::vector<Transaction>& transactions() const noexcept {
    return transactions_;
  }

  TxIndex genesis() const noexcept { return 0; }

  /// Prune frontier (see tangle/milestones.hpp): the index of the newest
  /// confirmed milestone. Tip-selection walks, biased walks, and
  /// confidence sampling never descend below it, Algorithm 1 candidacy is
  /// restricted to indices at or above it, and ModelStore payloads only
  /// referenced below it may be released. 0 (the default) means no pruning
  /// — walks root at the genesis exactly as before.
  TxIndex prune_floor() const noexcept { return prune_floor_; }

  /// Advances the prune frontier. The floor must be monotone and strictly
  /// inside the ledger; throws std::invalid_argument otherwise. Callers
  /// (MilestoneTracker) are responsible for the milestone property — the
  /// new floor must lie in the reflexive past cone of every tip of every
  /// view that will be walked.
  void set_prune_floor(TxIndex floor);

  /// Parent indices of a transaction (genesis approves itself).
  const std::vector<TxIndex>& parent_indices(TxIndex index) const {
    return parent_indices_.at(index);
  }

  /// Direct approvers (children) of a transaction, unrestricted.
  const std::vector<TxIndex>& approvers(TxIndex index) const {
    return approvers_.at(index);
  }

  /// Index lookup by id in O(1); nullopt if unknown.
  std::optional<TxIndex> find(const TransactionId& id) const;

  /// The whole ledger as a view.
  TangleView view() const { return TangleView(*this, size()); }
  /// The first `count` transactions as a view (count is clamped to size()).
  TangleView view_prefix(std::size_t count) const;

  /// Number of transactions published in rounds strictly before `round` —
  /// i.e. the size of the view a node participating in `round` sees.
  /// Requires transactions to have been appended in non-decreasing round
  /// order (the simulation engine guarantees this).
  std::size_t visible_count_for_round(std::uint64_t round) const;

  /// Binary dump of the headers and parent indices (payloads live in the
  /// ModelStore); the perfbench ledger digest hashes it.
  void serialize(ByteWriter& writer) const;

  /// Full structural audit (see tangle/invariants.hpp): acyclicity,
  /// solidity, approver accounting, cone monotonicity, header integrity.
  /// Returns one message per violation; empty means healthy. When the
  /// build defines TANGLEFL_DEBUG_CHECKS this audit also runs after every
  /// mutation and a violation throws tanglefl::CheckFailure.
  std::vector<std::string> check_invariants() const;

 private:
  friend struct TangleTestAccess;  // test-only corruption hooks

  std::vector<Transaction> transactions_;
  std::vector<std::vector<TxIndex>> parent_indices_;
  std::vector<std::vector<TxIndex>> approvers_;
  TxIndex prune_floor_ = 0;
  // id -> first index bearing it, maintained by every mutation path so
  // find() stays O(1) instead of a linear ledger scan.
  std::unordered_map<TransactionId, TxIndex, Sha256DigestHash> index_by_id_;
};

}  // namespace tanglefl::tangle
