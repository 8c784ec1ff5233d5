// Pluggable payload codec for the publish path (the paper's Section V names
// model compression as the key future-work item; DAG-AFL attacks the same
// DAG-FL communication-efficiency problem).
//
// A payload travels the wire as a pipeline of independently toggleable
// stages:
//
//   * delta     — predict the payload from the average of its approved
//                 parents' payloads (the exact base an honest node trained
//                 from, recomputable by any decoder that can resolve the
//                 approved transaction ids). Lossless: the dense form works
//                 on XOR'd float bit patterns, never on rounded arithmetic.
//   * topk      — magnitude sparsification of the update: keep the k
//                 coordinates that moved furthest from the base, packed as
//                 gap-coded indices plus their final values. Lossy.
//   * quantize  — 8-bit symmetric quantization (the nn/privacy.hpp
//                 quantizer promoted into a codec stage). Lossy.
//   * entropy   — adaptive binary range coder (LZMA-style bit model) over
//                 the serialized stage output, with byte-plane contexts for
//                 dense float words. Lossless.
//
// The *published* payload is always decode(encode(params)): with only
// lossless stages on, that is bitwise `params`; with lossy stages on, the
// canonical decoded form is what lands in the ModelStore, so tip selection,
// eval-engine content keys, and confidence math operate on exactly the
// bytes any decoder would reconstruct. encode/decode are pure
// integer-deterministic functions — results never depend on thread counts.
//
// topk sparsifies the update against the delta base, so a spec naming topk
// must also name delta (parse_codec_spec rejects it otherwise). The
// published payload is stored in ModelStore's flat, whole-payload
// deduplicated table; DESIGN §4j records why there is no chunk-level tier.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/params.hpp"
#include "tangle/model_store.hpp"
#include "tangle/tangle.hpp"

namespace tanglefl {
class ThreadPool;
}

namespace tanglefl::tangle {

struct PayloadCodecConfig {
  bool delta = false;
  bool topk = false;
  // Fraction of coordinates kept by the topk stage (of the full parameter
  // count, at least one).
  double topk_fraction = 0.01;
  bool quantize = false;
  bool entropy = false;

  bool any_stage() const noexcept {
    return delta || topk || quantize || entropy;
  }
  bool lossy() const noexcept { return topk || quantize; }
};

/// Parses a --payload-codec spec: "off", "default" (the lossless
/// delta+entropy preset), or a comma list of stage names among
/// {delta, topk[:fraction], quantize, entropy}. Throws
/// std::invalid_argument on unknown stages, malformed fractions, or topk
/// without delta.
PayloadCodecConfig parse_codec_spec(const std::string& spec);

/// Canonical spec string for manifests ("off" when no stage is set).
std::string codec_spec_string(const PayloadCodecConfig& config);

/// One encoded payload. The byte stream is self-describing up to the
/// decoder knowing the same base the encoder used (resolved via the
/// approved-transaction ids carried by the transaction header).
struct EncodedPayload {
  std::vector<std::uint8_t> bytes;
  std::size_t param_count = 0;

  std::size_t raw_bytes() const noexcept {
    return param_count * sizeof(float);
  }
};

class PayloadCodec {
 public:
  explicit PayloadCodec(PayloadCodecConfig config) : config_(config) {}

  const PayloadCodecConfig& config() const noexcept { return config_; }

  /// Encodes `params`. `base` is the delta predictor (the parent-payload
  /// average); pass an empty span when no base is resolvable — the delta
  /// stage then encodes against zero. A non-empty base must match
  /// `params.size()`.
  EncodedPayload encode(std::span<const float> params,
                        std::span<const float> base) const;

  /// Exact inverse of encode() given the same base. Bit-deterministic:
  /// equal inputs give equal outputs on every platform and thread count.
  nn::ParamVector decode(const EncodedPayload& encoded,
                         std::span<const float> base) const;

 private:
  PayloadCodecConfig config_;
};

/// One publish of a PayloadPipeline batch: the payload, replaced in place
/// by its canonical form, and the transactions it approves (indices into
/// the tangle).
struct PipelinePublish {
  nn::ParamVector* params = nullptr;
  std::span<const TxIndex> parents;
  // Optional: receives the encoded frame, the bytes a transport would send.
  EncodedPayload* frame = nullptr;
  // Optional: receives ModelStore::hash_params of the canonical payload,
  // computed in the payload's first codec task.
  Sha256Digest* digest = nullptr;
};

/// Publish-path driver shared by the three engines: resolves the delta base
/// from the approved parents (average of their payloads — exactly the base
/// an honest node trained from), encodes, records the
/// ledger.codec.{raw_bytes,encoded_bytes,payloads} counters and
/// encode/decode timings, and replaces each payload by its canonical
/// decoded form. With no wire stage configured this is a zero-cost
/// pass-through.
///
/// A batch runs as pool tasks. A dense lossless best-of payload (delta and
/// entropy, no lossy stage, a resolvable base) is two tasks: one resolves
/// the base, codes the XOR-delta stream and runs the self-check decode;
/// the other codes the raw stream and gives up once it reaches the delta
/// stream's size. Every other payload is one task. The first task also
/// hashes the decoded payload when the publish asks for its digest; both
/// streams of a best-of payload decode to the same values. A serial pass
/// in batch order then keeps the raw stream only where it is strictly
/// smaller, exactly as two full passes would, so the bytes do not depend
/// on the pool. process() keeps no state, so it is safe while nothing
/// mutates `tangle` or `store`.
class PayloadPipeline {
 public:
  explicit PayloadPipeline(const PayloadCodecConfig& config)
      : codec_(config) {}

  bool active() const noexcept { return codec_.config().any_stage(); }

  /// Codes `batch` on `pool` (null: serially, one task after another). Any
  /// released parent payload downgrades that publish's delta base to
  /// "none", so decode never depends on pruned history. Call it from
  /// outside `pool`'s workers, or its tasks run inline.
  void process(std::span<const PipelinePublish> batch, const Tangle& tangle,
               const ModelStore& store, ThreadPool* pool) const;

 private:
  PayloadCodec codec_;
};

}  // namespace tanglefl::tangle
