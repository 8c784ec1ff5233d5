// Transactions of the learning tangle. Unlike a cryptocurrency ledger, the
// payload of a transaction is a full set of model parameters (Section III);
// the transaction header holds the approved parents, the payload's content
// hash, the publishing round, and a nonce (always 0: no proof-of-work).
//
// A standard tangle transaction approves exactly two (not necessarily
// distinct) tips; the paper's hyperparameter study also publishes
// transactions that approve three tips ("# tips (n)" in Table II), so the
// parent list is variable-length with a minimum of one entry.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/serialize.hpp"
#include "support/sha256.hpp"

namespace tanglefl::tangle {

/// Content hash identifying a transaction.
using TransactionId = Sha256Digest;

/// Handle into the ModelStore holding the parameter payload.
using PayloadId = std::uint64_t;

/// Index of a transaction inside one Tangle instance (insertion order).
using TxIndex = std::size_t;

constexpr TxIndex kInvalidTxIndex = static_cast<TxIndex>(-1);

struct Transaction {
  TransactionId id{};
  // Approved parent ids; the genesis transaction references itself once.
  // Parents need not be distinct (Section II-C).
  std::vector<TransactionId> parents;
  Sha256Digest payload_hash{};
  PayloadId payload = 0;
  std::uint64_t round = 0;   // publishing round (visibility barrier)
  std::uint64_t nonce = 0;   // id preimage field; 0 (there is no PoW)
  // Publisher tag used only for diagnostics/metrics. It deliberately plays
  // no role in consensus: participants are anonymous (Section III-D).
  std::string publisher;

  bool is_genesis() const noexcept {
    return parents.size() == 1 && parents.front() == id;
  }
};

/// Computes a transaction id from its consensus-relevant fields (parents,
/// payload hash, round, nonce). The publisher tag is excluded on purpose.
TransactionId compute_transaction_id(std::span<const TransactionId> parents,
                                     const Sha256Digest& payload_hash,
                                     std::uint64_t round, std::uint64_t nonce);

/// Appends every header field, the publisher tag included, to `writer`
/// (Tangle::serialize's per-transaction record).
void serialize_transaction(const Transaction& tx, ByteWriter& writer);

/// Short printable prefix of an id, for logs and DOT labels.
std::string short_id(const TransactionId& id);

}  // namespace tanglefl::tangle
