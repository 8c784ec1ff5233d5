#include "tangle/checkpoint.hpp"

#include <fstream>
#include <stdexcept>

namespace tanglefl::tangle {
namespace {

constexpr std::uint32_t kMagic = 0x544e474c;  // "TNGL"
constexpr std::uint32_t kVersionLegacy = 1;   // flag-less store, no frontier
constexpr std::uint32_t kVersionFlat = 2;     // liveness flags, no store flag
constexpr std::uint32_t kVersion = 3;         // store flag byte (always 0)

/// Satellite integrity check: every transaction's payload handle must
/// resolve in the restored store and hash to what the header recorded.
void validate_payloads(const Tangle& tangle, const ModelStore& store) {
  for (TxIndex i = 0; i < tangle.size(); ++i) {
    const Transaction& tx = tangle.transaction(i);
    if (tx.payload >= store.size()) {
      throw SerializeError("load_ledger: transaction payload id not in store");
    }
    if (store.hash_of(tx.payload) != tx.payload_hash) {
      throw SerializeError("load_ledger: payload hash mismatch");
    }
  }
}

}  // namespace

void save_ledger(const std::string& path, const Tangle& tangle,
                 const ModelStore& store, const ConeStateCheckpoint* cones) {
  ByteWriter writer;
  writer.write_u32(kMagic);
  writer.write_u32(kVersion);
  tangle.serialize(writer);
  store.serialize(writer);
  writer.write_u64(tangle.prune_floor());
  const bool has_cones = cones != nullptr && !cones->past.empty();
  writer.write_u8(has_cones ? 1 : 0);
  if (has_cones) {
    writer.write_u32_span(cones->past);
    writer.write_u32_span(cones->future);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_ledger: cannot open " + path);
  const auto& bytes = writer.bytes();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("save_ledger: write failed: " + path);
}

Tangle load_ledger(const std::string& path, ModelStore& store,
                   ConeStateCheckpoint* cones) {
  if (store.size() != 0) {
    throw std::invalid_argument("load_ledger: store must be empty");
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("load_ledger: cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw std::runtime_error("load_ledger: read failed: " + path);

  ByteReader reader(bytes);
  if (reader.read_u32() != kMagic) {
    throw SerializeError("load_ledger: bad magic");
  }
  const std::uint32_t version = reader.read_u32();
  if (version != kVersionLegacy && version != kVersionFlat &&
      version != kVersion) {
    throw SerializeError("load_ledger: unsupported version");
  }
  Tangle tangle = Tangle::deserialize(reader);
  ConeStateCheckpoint sidecar;
  if (version == kVersionLegacy) {
    ModelStore::deserialize_into_v1(reader, store);
  } else {
    if (version == kVersionFlat) {
      ModelStore::deserialize_into_v2(reader, store);
    } else {
      ModelStore::deserialize_into(reader, store);
    }
    const std::uint64_t floor = reader.read_u64();
    if (floor >= tangle.size()) {
      throw SerializeError("load_ledger: prune frontier outside the ledger");
    }
    if (floor > 0) tangle.set_prune_floor(floor);
    if (reader.read_u8() == 1) {
      sidecar.past = reader.read_u32_vector();
      sidecar.future = reader.read_u32_vector();
      if (sidecar.past.size() != tangle.size() ||
          sidecar.future.size() != tangle.size()) {
        throw SerializeError("load_ledger: cone-state size mismatch");
      }
    }
  }
  if (!reader.exhausted()) {
    throw SerializeError("load_ledger: trailing bytes");
  }
  validate_payloads(tangle, store);
  if (cones != nullptr) *cones = std::move(sidecar);
  return tangle;
}

}  // namespace tanglefl::tangle
