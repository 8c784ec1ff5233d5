#include "tangle/tangle.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "tangle/invariants.hpp"

namespace tanglefl::tangle {
namespace {

obs::Counter& add_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.transactions.added");
  return counter;
}

// Rounds (micros for the async engine) between a transaction and each
// distinct parent it approves: the paper's parent-approval depth. Genesis
// approvals from round-1 publishers land in the first bucket.
obs::Histogram& approval_depth_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "tangle.approval_depth", obs::BucketLayout::exponential(1.0, 4.0, 16));
  return hist;
}

// Re-audits the whole structure after a mutation when the build opts into
// debug checks; compiles to nothing otherwise. Kept out of line so the
// mutation paths stay readable.
inline void debug_check_invariants([[maybe_unused]] const Tangle& tangle) {
#if defined(TANGLEFL_DEBUG_CHECKS)
  assert_invariants(tangle);
#endif
}

/// Row-major bitset matrix for exact reachability over a view prefix.
class BitMatrix {
 public:
  explicit BitMatrix(std::size_t n)
      : words_((n + 63) / 64), bits_(n * words_, 0) {}

  void set(std::size_t row, std::size_t bit) {
    bits_[row * words_ + bit / 64] |= (1ULL << (bit % 64));
  }

  void or_row(std::size_t dst, std::size_t src) {
    std::uint64_t* d = bits_.data() + dst * words_;
    const std::uint64_t* s = bits_.data() + src * words_;
    for (std::size_t w = 0; w < words_; ++w) d[w] |= s[w];
  }

  std::uint32_t popcount_row(std::size_t row) const {
    const std::uint64_t* r = bits_.data() + row * words_;
    std::uint32_t count = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      count += static_cast<std::uint32_t>(std::popcount(r[w]));
    }
    return count;
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace

// ------------------------------------------------------------- TangleView

TangleView::TangleView(const Tangle& tangle, std::size_t count)
    : tangle_(&tangle), count_(std::min(count, tangle.size())) {
  members_ = count_;
}

TangleView::TangleView(const Tangle& tangle, std::vector<bool> membership)
    : tangle_(&tangle), mask_(std::move(membership)) {
  mask_.resize(tangle.size(), false);
  count_ = 0;
  members_ = 0;
  for (TxIndex i = 0; i < mask_.size(); ++i) {
    if (!mask_[i]) continue;
    ++members_;
    count_ = i + 1;
    // Ancestor closure: a node only accepts solid transactions.
    for (const TxIndex p : tangle.parent_indices(i)) {
      if (!mask_[p]) {
        throw std::invalid_argument(
            "TangleView: membership is not ancestor-closed");
      }
    }
  }
  if (members_ == 0 || !mask_[tangle.genesis()]) {
    throw std::invalid_argument("TangleView: genesis must be a member");
  }
}

std::vector<TxIndex> TangleView::tips() const {
  std::vector<TxIndex> result;
  for (TxIndex i = 0; i < count_; ++i) {
    if (!contains(i)) continue;
    const auto& approvers = tangle_->approvers(i);
    const bool approved_in_view =
        std::any_of(approvers.begin(), approvers.end(),
                    [this](TxIndex a) { return contains(a); });
    if (!approved_in_view) result.push_back(i);
  }
  return result;
}

std::vector<TxIndex> TangleView::approvers(TxIndex index) const {
  assert(contains(index));
  std::vector<TxIndex> result;
  for (const TxIndex a : tangle_->approvers(index)) {
    if (contains(a)) result.push_back(a);
  }
  return result;
}

std::vector<std::uint32_t> TangleView::past_cone_sizes() const {
  BitMatrix reach(count_);
  std::vector<std::uint32_t> sizes(count_, 0);
  // Parents always precede children in insertion order, so one ascending
  // pass closes the transitive past relation. Masked views are
  // ancestor-closed, so every member's parents are members too.
  for (TxIndex i = 1; i < count_; ++i) {
    if (!contains(i)) continue;
    for (const TxIndex p : tangle_->parent_indices(i)) {
      assert(p < i);
      reach.set(i, p);
      reach.or_row(i, p);
    }
    sizes[i] = reach.popcount_row(i);
  }
  return sizes;
}

std::vector<std::uint32_t> TangleView::future_cone_sizes() const {
  BitMatrix reach(count_);
  std::vector<std::uint32_t> sizes(count_, 0);
  for (TxIndex ii = count_; ii > 0; --ii) {
    const TxIndex i = ii - 1;
    if (!contains(i)) continue;
    for (const TxIndex child : tangle_->approvers(i)) {
      if (!contains(child)) continue;
      reach.set(i, child);
      reach.or_row(i, child);
    }
    sizes[i] = reach.popcount_row(i);
  }
  return sizes;
}

bool TangleView::approves(TxIndex descendant, TxIndex ancestor) const {
  assert(contains(descendant) && contains(ancestor));
  if (descendant == ancestor) return true;
  if (ancestor > descendant) return false;  // edges only point backwards
  // DFS through parents; indices below `ancestor` cannot reach it because
  // approval edges always point to smaller indices.
  std::vector<TxIndex> stack = {descendant};
  std::vector<bool> seen(descendant + 1, false);
  while (!stack.empty()) {
    const TxIndex current = stack.back();
    stack.pop_back();
    if (current == ancestor) return true;
    if (current == 0) continue;  // genesis
    for (const TxIndex p : tangle_->parent_indices(current)) {
      if (p >= ancestor && !seen[p]) {
        seen[p] = true;
        stack.push_back(p);
      }
    }
  }
  return false;
}

// ----------------------------------------------------------------- Tangle

Tangle::Tangle(PayloadId genesis_payload,
               const Sha256Digest& genesis_payload_hash) {
  Transaction genesis;
  genesis.payload = genesis_payload;
  genesis.payload_hash = genesis_payload_hash;
  genesis.round = 0;
  genesis.publisher = "genesis";
  // The genesis id is derived from an empty parent list, then the
  // transaction is marked self-approving by convention.
  genesis.id = compute_transaction_id({}, genesis.payload_hash, genesis.round,
                                      genesis.nonce);
  genesis.parents = {genesis.id};
  index_by_id_.emplace(genesis.id, 0);
  transactions_.push_back(std::move(genesis));
  parent_indices_.push_back({0});
  approvers_.emplace_back();
  debug_check_invariants(*this);
}

TxIndex Tangle::add_transaction(std::span<const TxIndex> parents,
                                PayloadId payload,
                                const Sha256Digest& payload_hash,
                                std::uint64_t round, std::string publisher) {
  obs::TraceScope span("tangle.add_transaction");
  if (parents.empty()) {
    throw std::invalid_argument("add_transaction: no parents");
  }
  for (const TxIndex p : parents) {
    if (p >= transactions_.size()) {
      throw std::out_of_range("add_transaction: unknown parent index");
    }
  }
  if (!transactions_.empty() && round < transactions_.back().round) {
    throw std::invalid_argument(
        "add_transaction: rounds must be non-decreasing");
  }

  Transaction tx;
  tx.parents.reserve(parents.size());
  for (const TxIndex p : parents) tx.parents.push_back(transactions_[p].id);
  tx.payload = payload;
  tx.payload_hash = payload_hash;
  tx.round = round;
  tx.publisher = std::move(publisher);
  tx.id = compute_transaction_id(tx.parents, tx.payload_hash, tx.round,
                                 tx.nonce);

  const TxIndex index = transactions_.size();
  // emplace keeps the first index on an id collision, preserving find()'s
  // historical first-match semantics.
  index_by_id_.emplace(tx.id, index);
  transactions_.push_back(std::move(tx));
  parent_indices_.emplace_back(parents.begin(), parents.end());
  approvers_.emplace_back();
  // Register each distinct parent once as an approval edge.
  std::vector<TxIndex> distinct(parents.begin(), parents.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  for (const TxIndex p : distinct) {
    approvers_[p].push_back(index);
    approval_depth_histogram().record(
        static_cast<double>(round - transactions_[p].round));
  }
  add_counter().increment();
  debug_check_invariants(*this);
  return index;
}

std::optional<TxIndex> Tangle::find(const TransactionId& id) const {
  const auto it = index_by_id_.find(id);
  if (it == index_by_id_.end()) return std::nullopt;
  return it->second;
}

TangleView Tangle::view_prefix(std::size_t count) const {
  return TangleView(*this, count);
}

void Tangle::set_prune_floor(TxIndex floor) {
  if (floor < prune_floor_) {
    throw std::invalid_argument(
        "Tangle::set_prune_floor: frontier must advance monotonically");
  }
  if (floor >= size()) {
    throw std::invalid_argument(
        "Tangle::set_prune_floor: frontier outside the ledger");
  }
  prune_floor_ = floor;
}

std::size_t Tangle::visible_count_for_round(std::uint64_t round) const {
  // Transactions are appended in round order; binary-search the boundary.
  const auto it = std::lower_bound(
      transactions_.begin(), transactions_.end(), round,
      [](const Transaction& tx, std::uint64_t r) { return tx.round < r; });
  return static_cast<std::size_t>(it - transactions_.begin());
}

void Tangle::serialize(ByteWriter& writer) const {
  writer.write_u64(transactions_.size());
  for (std::size_t i = 0; i < transactions_.size(); ++i) {
    serialize_transaction(transactions_[i], writer);
    writer.write_u64(parent_indices_[i].size());
    for (const TxIndex p : parent_indices_[i]) writer.write_u64(p);
  }
}

Tangle Tangle::deserialize(ByteReader& reader) {
  Tangle tangle;
  const std::uint64_t count = reader.read_u64();
  tangle.transactions_.reserve(count);
  tangle.parent_indices_.reserve(count);
  tangle.approvers_.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Transaction tx = deserialize_transaction(reader);
    const std::uint64_t parent_count = reader.read_u64();
    if (parent_count == 0 || parent_count > 64) {
      throw SerializeError("tangle: implausible parent count");
    }
    std::vector<TxIndex> parents;
    parents.reserve(parent_count);
    for (std::uint64_t k = 0; k < parent_count; ++k) {
      parents.push_back(static_cast<TxIndex>(reader.read_u64()));
    }
    if (i > 0) {
      std::vector<TxIndex> distinct = parents;
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      for (const TxIndex p : distinct) {
        if (p >= i) throw SerializeError("tangle: parent after child");
        tangle.approvers_[p].push_back(i);
      }
    }
    // Ids are content hashes; seeing one twice means a corrupt or forged
    // stream, not a legitimate ledger.
    if (!tangle.index_by_id_.emplace(tx.id, static_cast<TxIndex>(i)).second) {
      throw SerializeError("tangle: duplicate transaction id");
    }
    tangle.transactions_.push_back(std::move(tx));
    tangle.parent_indices_.push_back(std::move(parents));
  }
  if (tangle.transactions_.empty()) {
    throw SerializeError("tangle: missing genesis");
  }
  debug_check_invariants(tangle);
  return tangle;
}

}  // namespace tanglefl::tangle
