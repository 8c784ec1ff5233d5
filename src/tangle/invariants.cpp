#include "tangle/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/check.hpp"
#include "tangle/confidence.hpp"

namespace tanglefl::tangle {
namespace {

template <typename... Parts>
void report(std::vector<std::string>& out, Parts&&... parts) {
  std::ostringstream message;
  (message << ... << parts);
  out.push_back(message.str());
}

/// Distinct, sorted copy of a parent list (the edge set used for approver
/// accounting — duplicates collapse to one approval edge).
std::vector<TxIndex> distinct_sorted(const std::vector<TxIndex>& parents) {
  std::vector<TxIndex> distinct = parents;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  return distinct;
}

}  // namespace

std::vector<std::string> find_invariant_violations(const Tangle& tangle) {
  std::vector<std::string> violations;
  const std::size_t n = tangle.size();

  if (n == 0) {
    report(violations, "tangle is empty: the genesis transaction is missing");
    return violations;
  }

  // --- genesis conventions ------------------------------------------------
  {
    const Transaction& genesis = tangle.transaction(0);
    if (!genesis.is_genesis()) {
      report(violations,
             "genesis (index 0) is not self-approving: expected exactly one "
             "parent id equal to its own id, got ",
             genesis.parents.size(), " parent id(s)");
    }
    const auto& gparents = tangle.parent_indices(0);
    if (gparents != std::vector<TxIndex>{0}) {
      report(violations,
             "genesis parent indices must be {0} (self-loop by convention), "
             "got a list of size ",
             gparents.size());
    }
  }

  // --- per-transaction structure -----------------------------------------
  // Acyclicity holds iff every edge points strictly backwards in insertion
  // order, so a forward or self parent *is* a cycle witness.
  for (TxIndex i = 1; i < n; ++i) {
    const Transaction& tx = tangle.transaction(i);
    const auto& parents = tangle.parent_indices(i);

    if (parents.empty()) {
      report(violations, "tx ", i, ": no parents (every non-genesis ",
             "transaction must approve at least one tip)");
      continue;
    }
    bool parents_ok = true;
    for (const TxIndex p : parents) {
      if (p >= n) {
        report(violations, "tx ", i, ": parent index ", p,
               " does not exist (tangle size ", n, ")");
        parents_ok = false;
      } else if (p >= i) {
        report(violations, "tx ", i, ": parent index ", p,
               " is not an earlier transaction — approval edges must point "
               "backwards; this edge closes a cycle");
        parents_ok = false;
      }
    }
    if (parents.size() != tx.parents.size()) {
      report(violations, "tx ", i, ": header lists ", tx.parents.size(),
             " parent id(s) but the index maps ", parents.size());
      parents_ok = false;
    }
    if (parents_ok) {
      for (std::size_t k = 0; k < parents.size(); ++k) {
        if (tangle.transaction(parents[k]).id != tx.parents[k]) {
          report(violations, "tx ", i, ": parent id #", k,
                 " does not match the id of parent index ", parents[k]);
        }
      }
    }

    if (tx.round < tangle.transaction(i - 1).round) {
      report(violations, "tx ", i, ": round ", tx.round,
             " precedes round ", tangle.transaction(i - 1).round, " of tx ",
             i - 1, " — rounds must be non-decreasing in insertion order");
    }

    const TransactionId expected = compute_transaction_id(
        tx.parents, tx.payload_hash, tx.round, tx.nonce);
    if (expected != tx.id) {
      report(violations, "tx ", i, ": id does not hash its consensus fields",
             " (parents/payload-hash/round/nonce) — forged or stale header");
    }
  }

  // --- approver accounting ------------------------------------------------
  // approvers_ must be the exact inverse of the distinct parent edges, in
  // insertion (== ascending child) order. The biased walk derives its
  // cumulative weights from these lists, so a stale entry skews every walk.
  {
    std::vector<std::vector<TxIndex>> expected(n);
    for (TxIndex i = 1; i < n; ++i) {
      for (const TxIndex p : distinct_sorted(tangle.parent_indices(i))) {
        if (p < i) expected[p].push_back(i);
      }
    }
    for (TxIndex i = 0; i < n; ++i) {
      if (tangle.approvers(i) != expected[i]) {
        report(violations, "tx ", i, ": approver list is inconsistent with ",
               "the parent lists (stored ", tangle.approvers(i).size(),
               " approver(s), recomputed ", expected[i].size(),
               ") — approver accounting is stale");
      }
    }
  }

  // The cone computations assume the structural invariants above; with a
  // corrupt edge set their preconditions (e.g. parents precede children)
  // do not hold, so only audit cones on a structurally sound tangle.
  if (!violations.empty()) return violations;

  // --- cone consistency ---------------------------------------------------
  // The rating (past cone) and cumulative weight (future cone) must grow
  // strictly along approval edges: a child sees everything its parent sees
  // plus the parent itself, and symmetrically for approvers.
  {
    const TangleView view = tangle.view();
    const std::vector<std::uint32_t> past = view.past_cone_sizes();
    const std::vector<std::uint32_t> future = view.future_cone_sizes();
    for (TxIndex i = 1; i < n; ++i) {
      for (const TxIndex p : distinct_sorted(tangle.parent_indices(i))) {
        if (past[i] < past[p] + 1) {
          report(violations, "tx ", i, ": past cone size ", past[i],
                 " is not larger than parent ", p, "'s (", past[p],
                 ") — rating monotonicity violated");
        }
        if (future[p] < future[i] + 1) {
          report(violations, "tx ", p, ": future cone size ", future[p],
                 " is not larger than approver ", i, "'s (", future[i],
                 ") — cumulative weight monotonicity violated");
        }
      }
    }
  }

  return violations;
}

std::vector<std::string> find_confidence_violations(
    const TangleView& view, const ConfidenceWindow& confidence) {
  std::vector<std::string> violations;
  if (confidence.size() != view.size()) {
    report(violations, "confidence window covers ", confidence.size(),
           " entries for a view of size ", view.size());
    return violations;
  }
  for (TxIndex i = confidence.floor; i < confidence.size(); ++i) {
    if (!view.contains(i)) continue;
    const double c = confidence[i];
    if (!(c >= 0.0 && c <= 1.0) || std::isnan(c)) {
      report(violations, "tx ", i, ": confidence ", c,
             " is outside [0, 1]");
    }
  }
  // Every sampled walk that hits an approver also hits all of its parents
  // (the hit set is a past cone), so confidence can only shrink walking
  // forward: conf(parent) >= conf(child) along every in-view edge.
  for (TxIndex i = 1; i < confidence.size(); ++i) {
    if (!view.contains(i)) continue;
    for (const TxIndex p : view.tangle().parent_indices(i)) {
      if (p == i || !view.contains(p)) continue;
      if (confidence[p] + 1e-12 < confidence[i]) {
        report(violations, "tx ", p, ": confidence ", confidence[p],
               " is below approver ", i, "'s confidence ", confidence[i],
               " — monotonicity along approval edges violated");
      }
    }
  }
  return violations;
}

void assert_invariants(const Tangle& tangle) {
  const std::vector<std::string> violations =
      find_invariant_violations(tangle);
  if (violations.empty()) return;
  std::ostringstream message;
  message << "tangle invariants violated (" << violations.size() << "):";
  for (const std::string& v : violations) message << "\n  - " << v;
  throw CheckFailure(message.str());
}

std::vector<std::string> Tangle::check_invariants() const {
  return find_invariant_violations(*this);
}

}  // namespace tanglefl::tangle
