// Runtime invariant checks for the tangle DAG.
//
// The consensus analysis the simulator relies on (Algorithm 1 ratings,
// Algorithm 2 biased walks, Monte-Carlo confidence) assumes a handful of
// structural properties that the Tangle class maintains by construction:
//
//   * acyclicity — approval edges point strictly backwards in insertion
//     order (parents precede children; only the genesis self-approves),
//   * solidity — every referenced parent exists,
//   * approver accounting — the child lists (`approvers_`) are exactly the
//     inverse of the distinct-parent lists, in insertion order,
//   * cone consistency — past/future cone sizes grow strictly along edges,
//     the partial order the biased walk's cumulative weights depend on,
//   * header integrity — each transaction id matches the hash of its
//     consensus fields, and rounds are non-decreasing,
//   * confidence sanity — Monte-Carlo confidences lie in [0, 1] and are
//     monotone along approval edges (every walk that hits a child also
//     hits its parents), the static form of "confidence is monotone under
//     new approvals".
//
// `find_invariant_violations` re-derives all of this from scratch and
// reports every violation with a human-readable message; it never throws.
// `Tangle::check_invariants()` (declared in tangle.hpp) forwards to it.
// When the build defines TANGLEFL_DEBUG_CHECKS, every Tangle mutation
// re-validates the structure and a violation raises tanglefl::CheckFailure.
#pragma once

#include <string>
#include <vector>

#include "tangle/tangle.hpp"

namespace tanglefl::tangle {

/// Full structural audit of `tangle`. Returns one message per violated
/// invariant (empty vector == healthy). O(V·E/64) via bitset reachability,
/// plus one SHA-256 per transaction for header integrity.
std::vector<std::string> find_invariant_violations(const Tangle& tangle);

struct ConfidenceWindow;

/// Confidence-window audit against the view it was computed for: size
/// match, range [0, 1], and monotonicity along approval edges
/// (confidence(parent) >= confidence(child) for every in-view edge), with
/// values below the window's floor read as 1.0.
std::vector<std::string> find_confidence_violations(
    const TangleView& view, const ConfidenceWindow& confidence);

/// Throws tanglefl::CheckFailure listing every violation if the tangle is
/// corrupt; no-op when healthy. Called from mutation paths when
/// TANGLEFL_DEBUG_CHECKS is defined.
void assert_invariants(const Tangle& tangle);

/// Test-only backdoor used by the invariant tests to forge corruption
/// (cycles, stale approver lists, bogus headers) inside an otherwise
/// encapsulated Tangle. Not for use outside tests.
struct TangleTestAccess {
  static std::vector<Transaction>& transactions(Tangle& tangle) {
    return tangle.transactions_;
  }
  static std::vector<std::vector<TxIndex>>& parent_indices(Tangle& tangle) {
    return tangle.parent_indices_;
  }
  static std::vector<std::vector<TxIndex>>& approvers(Tangle& tangle) {
    return tangle.approvers_;
  }
};

}  // namespace tanglefl::tangle
