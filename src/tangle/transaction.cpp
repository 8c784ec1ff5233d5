#include "tangle/transaction.hpp"

namespace tanglefl::tangle {

TransactionId compute_transaction_id(std::span<const TransactionId> parents,
                                     const Sha256Digest& payload_hash,
                                     std::uint64_t round,
                                     std::uint64_t nonce) {
  ByteWriter preimage;
  preimage.write_u64(parents.size());
  for (const auto& parent : parents) {
    preimage.write_bytes(parent);
  }
  preimage.write_bytes(payload_hash);
  preimage.write_u64(round);
  preimage.write_u64(nonce);
  return Sha256::hash(preimage.bytes());
}

void serialize_transaction(const Transaction& tx, ByteWriter& writer) {
  writer.write_bytes(tx.id);
  writer.write_u64(tx.parents.size());
  for (const auto& parent : tx.parents) {
    writer.write_bytes(parent);
  }
  writer.write_bytes(tx.payload_hash);
  writer.write_u64(tx.payload);
  writer.write_u64(tx.round);
  writer.write_u64(tx.nonce);
  writer.write_string(tx.publisher);
}

std::string short_id(const TransactionId& id) {
  return to_hex(id).substr(0, 8);
}

}  // namespace tanglefl::tangle
