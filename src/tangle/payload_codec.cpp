#include "tangle/payload_codec.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "nn/privacy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/serialize.hpp"
#include "support/thread_pool.hpp"

namespace tanglefl::tangle {
namespace {

// ---------------------------------------------------------------------------
// Adaptive binary range coder (the LZMA bit coder: 11-bit probabilities,
// shift-4 adaptation, carry propagation through a pending-0xFF cache). All
// state is integer, so encode/decode are bit-deterministic everywhere.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kTopValue = 1u << 24;
constexpr std::uint16_t kProbInit = 1024;  // p(bit=0) = 1/2 in 11-bit scale
constexpr unsigned kAdaptShift = 4;

/// Probabilities stay in [15, 2033]/2048 under the shift-4 update, so a
/// coded bit leaves at least 15/2048 of a range >= kTopValue: more than
/// 2^16, and one shift by 8 renormalises it. A coded byte therefore emits
/// at most 8 bytes plus the pending 0xFF run.
constexpr std::size_t kMaxBytesPerCodedByte = 8;

class RangeEncoder {
 public:
  /// Starts with room for `expected_size` bytes; the buffer grows as needed.
  explicit RangeEncoder(std::size_t expected_size)
      : out_(expected_size + kMaxBytesPerCodedByte) {
    coder_.cursor = out_.data();
  }

  /// Codes `byte` MSB first through the bit tree `probs` (node index =
  /// 1 followed by the bits coded so far).
  void encode_byte(std::uint16_t* probs, unsigned byte) {
    ensure_headroom(kMaxBytesPerCodedByte);
    // Coding in a local copy keeps the state in registers: the byte stores
    // through the cursor cannot alias it.
    Coder coder = coder_;
    unsigned context = 1;
    for (int bit_index = 7; bit_index >= 0; --bit_index) {
      const unsigned bit = (byte >> bit_index) & 1u;
      coder.encode_bit(probs[context], bit);
      context = (context << 1) | bit;
    }
    coder_ = coder;
  }

  /// Bytes emitted so far. The coder only ever appends.
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(coder_.cursor - out_.data());
  }

  /// Flushes the remaining low bits; call exactly once, before take().
  void finish() {
    ensure_headroom(5);
    for (int i = 0; i < 5; ++i) coder_.shift_low();
  }

  /// The bytes emitted so far (the whole stream after finish()).
  std::vector<std::uint8_t> take() {
    out_.resize(size());
    return std::move(out_);
  }

 private:
  struct Coder {
    std::uint8_t* cursor = nullptr;
    std::uint64_t low = 0;
    std::uint32_t range = 0xFFFFFFFFu;
    std::uint8_t cache = 0;
    std::uint64_t cache_size = 1;

    void encode_bit(std::uint16_t& prob, unsigned bit) {
      const std::uint32_t bound = (range >> 11) * prob;
      const std::uint32_t one = 0u - bit;  // all ones when bit == 1
      low += bound & one;
      range = (bound & ~one) | ((range - bound) & one);
      const std::uint32_t p = prob;
      const std::uint32_t toward_zero = p + ((2048 - p) >> kAdaptShift);
      const std::uint32_t toward_one = p - (p >> kAdaptShift);
      prob = static_cast<std::uint16_t>((toward_zero & ~one) |
                                        (toward_one & one));
      if (range < kTopValue) {
        range <<= 8;
        shift_low();
      }
    }

    void shift_low() {
      if (static_cast<std::uint32_t>(low) < 0xFF000000u || (low >> 32) != 0) {
        std::uint8_t carry_byte = cache;
        do {
          *cursor++ = static_cast<std::uint8_t>(carry_byte + (low >> 32));
          carry_byte = 0xFF;
        } while (--cache_size != 0);
        cache = static_cast<std::uint8_t>(low >> 24);
      }
      ++cache_size;
      low = (low & 0x00FFFFFFu) << 8;
    }
  };

  /// Makes room for `bytes` more shift_low() calls; each flush also writes
  /// the pending run.
  void ensure_headroom(std::size_t bytes) {
    const std::size_t used = size();
    const std::size_t needed = used + coder_.cache_size + bytes;
    if (needed <= out_.size()) return;
    out_.resize(std::max(needed, 2 * out_.size()));
    coder_.cursor = out_.data() + used;
  }

  std::vector<std::uint8_t> out_;
  Coder coder_;
};

class RangeDecoder {
 public:
  explicit RangeDecoder(std::span<const std::uint8_t> data) : data_(data) {
    // The encoder's cache discipline emits one leading zero byte; consume
    // it together with the first four payload bytes.
    for (int i = 0; i < 5; ++i) code_ = (code_ << 8) | next_byte();
  }

  unsigned decode_bit(std::uint16_t& prob) {
    const std::uint32_t bound = (range_ >> 11) * prob;
    unsigned bit = 0;
    if (code_ < bound) {
      range_ = bound;
      prob = static_cast<std::uint16_t>(prob + ((2048 - prob) >> kAdaptShift));
    } else {
      code_ -= bound;
      range_ -= bound;
      prob = static_cast<std::uint16_t>(prob - (prob >> kAdaptShift));
      bit = 1;
    }
    while (range_ < kTopValue) {
      range_ <<= 8;
      code_ = (code_ << 8) | next_byte();
    }
    return bit;
  }

 private:
  /// Reads past the buffer as zero: the encoder's flush already emitted
  /// every byte the decoder can need, and the output length is validated
  /// by the caller against the recorded plain size.
  std::uint8_t next_byte() {
    return offset_ < data_.size() ? data_[offset_++] : 0;
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
  std::uint32_t code_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
};

/// One adaptive byte model: a 256-node binary tree of bit probabilities
/// (node index doubles as the bits-so-far context within the byte).
struct ByteTree {
  std::array<std::uint16_t, 256> probs;
  ByteTree() { probs.fill(kProbInit); }
};

std::uint8_t decode_byte(RangeDecoder& decoder, ByteTree& tree) {
  unsigned context = 1;
  for (int bit_index = 0; bit_index < 8; ++bit_index) {
    context = (context << 1) | decoder.decode_bit(tree.probs[context]);
  }
  return static_cast<std::uint8_t>(context & 0xFFu);
}

/// Order-0 adaptive compression of opaque stage bytes under one byte model.
std::vector<std::uint8_t> entropy_compress(std::span<const std::uint8_t> data) {
  ByteTree tree;
  RangeEncoder encoder(data.size() / 2 + 16);
  for (const std::uint8_t byte : data) {
    encoder.encode_byte(tree.probs.data(), byte);
  }
  encoder.finish();
  return encoder.take();
}

std::vector<std::uint8_t> entropy_decompress(
    std::span<const std::uint8_t> data, std::size_t plain_size) {
  ByteTree tree;
  std::vector<std::uint8_t> out(plain_size);
  RangeDecoder decoder(data);
  for (std::uint8_t& byte : out) byte = decode_byte(decoder, tree);
  return out;
}

std::uint32_t float_bits(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

float bits_float(std::uint32_t bits) {
  float value = 0.0f;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

// Dense-word model: each 32-bit word is coded most-significant byte first
// under the context (byte position, magnitude class of the bytes already
// coded for this word: all 0x00 / all 0xFF / mixed, and the magnitude
// band of the base value at this position). A small XOR delta is a run of
// 0x00 bytes followed by a short significant tail (and a raw negative
// float a 0xFF-led run), so the within-word class gives the lower-byte
// models sharply different distributions per update magnitude, while the
// base band separates per-layer scales: big weights see big absolute
// updates, biases and small weights see small ones.
constexpr std::size_t kWordClasses = 3;      // zeros, ffs, mixed
constexpr std::size_t kExponentBuckets = 4;  // base |value| magnitude bands

std::size_t word_context(std::size_t byte_position, std::size_t cls,
                         std::size_t exponent_bucket) {
  return (byte_position * kWordClasses + cls) * kExponentBuckets +
         exponent_bucket;
}

std::size_t next_class(std::size_t cls, std::uint8_t byte, bool first) {
  if (first) {
    if (byte == 0x00) return 0;
    return byte == 0xFF ? 1 : 2;
  }
  if (cls == 0 && byte == 0x00) return 0;
  if (cls == 1 && byte == 0xFF) return 1;
  return 2;
}

/// Magnitude band of the base value at a word's position — side
/// information both sides share, so it costs no bits. The bands track the
/// typical per-layer weight scales of the models in nn/model_zoo.hpp.
std::size_t exponent_bucket_of(float base_value) {
  const std::uint32_t exponent = (float_bits(base_value) >> 23) & 0xFFu;
  if (exponent >= 127) return 3;  // |w| >= 1
  if (exponent >= 124) return 2;  // [0.125, 1)
  if (exponent >= 120) return 1;  // [~0.008, 0.125)
  return 0;                       // smaller (or zero)
}

/// Words between two reads of a concurrently stored give-up size.
constexpr std::size_t kGiveUpRereadWords = 256;

/// Codes the dense word stream. The range coder only ever appends, so once
/// the output reaches the size in `give_up_at` the finished stream could not
/// be shorter: coding stops there and returns the unfinished prefix, which
/// the best-of rule only compares and discards. Another task may store that
/// size while this one codes; it is reread every kGiveUpRereadWords words,
/// so a size stored before the call stops coding at exactly its length.
std::vector<std::uint8_t> entropy_compress_words(
    std::span<const std::uint8_t> data, std::span<const float> base,
    const std::atomic<std::size_t>* give_up_at = nullptr) {
  std::vector<ByteTree> trees(4 * kWordClasses * kExponentBuckets);
  RangeEncoder encoder(data.size() / 2 + 16);
  std::size_t limit = std::numeric_limits<std::size_t>::max();
  for (std::size_t word = 0; word + 4 <= data.size(); word += 4) {
    if (give_up_at != nullptr && word % (4 * kGiveUpRereadWords) == 0) {
      limit = give_up_at->load();
    }
    if (encoder.size() >= limit) return encoder.take();
    const std::size_t bucket =
        base.empty() ? 0 : exponent_bucket_of(base[word / 4]);
    std::size_t cls = 0;
    for (std::size_t b = 4; b-- > 0;) {
      const std::uint8_t byte = data[word + b];
      encoder.encode_byte(trees[word_context(b, cls, bucket)].probs.data(),
                          byte);
      cls = next_class(cls, byte, /*first=*/b == 3);
    }
  }
  encoder.finish();
  return encoder.take();
}

std::vector<std::uint8_t> entropy_decompress_words(
    std::span<const std::uint8_t> data, std::size_t plain_size,
    std::span<const float> base) {
  std::vector<ByteTree> trees(4 * kWordClasses * kExponentBuckets);
  std::vector<std::uint8_t> out(plain_size);
  RangeDecoder decoder(data);
  for (std::size_t word = 0; word + 4 <= plain_size; word += 4) {
    const std::size_t bucket =
        base.empty() ? 0 : exponent_bucket_of(base[word / 4]);
    std::size_t cls = 0;
    for (std::size_t b = 4; b-- > 0;) {
      const std::uint8_t byte =
          decode_byte(decoder, trees[word_context(b, cls, bucket)]);
      out[word + b] = byte;
      cls = next_class(cls, byte, /*first=*/b == 3);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Stage plumbing
// ---------------------------------------------------------------------------

constexpr std::uint8_t kFlagDeltaUsed = 1u << 0;
constexpr std::uint8_t kFlagTopk = 1u << 1;
constexpr std::uint8_t kFlagQuantize = 1u << 2;
constexpr std::uint8_t kFlagEntropy = 1u << 3;
// Dense lossless best-of: the raw word stream compressed better than the
// XOR-delta stream, so the decoder must skip the base entirely.
constexpr std::uint8_t kFlagDenseRaw = 1u << 4;

void write_varint(ByteWriter& writer, std::uint64_t value) {
  while (value >= 0x80) {
    writer.write_u8(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  writer.write_u8(static_cast<std::uint8_t>(value));
}

std::uint64_t read_varint(ByteReader& reader) {
  std::uint64_t value = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = reader.read_u8();
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  throw SerializeError("payload codec: varint overruns 64 bits");
}

/// Reads a quantize scale, rejecting any value nn::quantize_params cannot
/// produce (it emits a positive scale of at most FLT_MAX / 127), so every
/// dequantized value is finite.
float read_quantize_scale(ByteReader& reader) {
  const float scale = reader.read_f32();
  if (!(scale > 0.0f &&
        scale <= std::numeric_limits<float>::max() / 127.0f)) {
    throw SerializeError("payload codec: quantize scale out of range");
  }
  return scale;
}

std::uint64_t varint_size(std::uint64_t value) {
  std::uint64_t bytes = 1;
  for (; value >= 0x80; value >>= 7) ++bytes;
  return bytes;
}

/// Checks an untrusted entropy-stage plain size before anything is sized
/// by it: the dense form is exactly four bytes per parameter, and a topk or
/// quantize body is at most what `count` parameters can serialize to.
void check_plain_size(std::uint8_t flags, std::uint64_t count,
                      std::uint64_t plain_size) {
  // Keeps every bound below free of overflow.
  if (count > (std::numeric_limits<std::uint64_t>::max() >> 5)) {
    throw SerializeError("payload codec: parameter count too large");
  }
  const bool topk = (flags & kFlagTopk) != 0;
  const bool quantize = (flags & kFlagQuantize) != 0;
  if (!topk && !quantize) {
    if (plain_size != count * sizeof(std::uint32_t)) {
      throw SerializeError("payload codec: dense plain size mismatch");
    }
    return;
  }
  // Values: an f32 scale plus one byte each, or one f32 each.
  std::uint64_t limit =
      quantize ? sizeof(float) + count : sizeof(float) * count;
  // Topk adds the kept count and one gap varint per kept index.
  if (topk) limit += varint_size(count) * (count + 1);
  if (plain_size > limit) {
    throw SerializeError("payload codec: plain size exceeds payload bound");
  }
}

/// Little-endian byte image of the dense lossless words: XOR'd float bit
/// patterns against the base (sign, exponent, and agreeing high-mantissa
/// bits of a nearby float cancel to zero — exactly the structure the
/// word-context entropy model keys on), or the raw bit patterns when no
/// base applies. Bit operations only, so the path is lossless for every
/// pattern including NaNs.
std::vector<std::uint8_t> dense_words(std::span<const float> params,
                                      std::span<const float> base) {
  std::vector<std::uint8_t> bytes(params.size() * sizeof(std::uint32_t));
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::uint32_t word = float_bits(params[i]);
    if (!base.empty()) word ^= float_bits(base[i]);
    std::memcpy(bytes.data() + i * 4, &word, 4);
  }
  return bytes;
}

struct TopkSelection {
  std::vector<std::uint64_t> indices;  // ascending
  std::vector<float> values;           // final published values, parallel
};

/// Keeps the (at most) k coordinates whose final value differs most from
/// the base, skipping exact matches entirely: the decoder reproduces those
/// from the base, so re-encoding a decoded payload keeps its exact value.
TopkSelection select_topk(std::span<const float> params,
                          std::span<const float> base, double fraction) {
  const std::size_t n = params.size();
  const auto want = static_cast<std::size_t>(
      std::max<long>(1, std::lround(fraction * static_cast<double>(n))));
  std::vector<std::uint64_t> candidates;
  candidates.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float based = base.empty() ? 0.0f : base[i];
    if (params[i] != based) candidates.push_back(i);
  }
  const std::size_t keep = std::min(want, candidates.size());
  const auto magnitude = [&](std::uint64_t i) {
    const float based = base.empty() ? 0.0f : base[i];
    return std::abs(static_cast<double>(params[i]) - based);
  };
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end(), [&](std::uint64_t a, std::uint64_t b) {
                      const double ma = magnitude(a);
                      const double mb = magnitude(b);
                      if (ma != mb) return ma > mb;
                      return a < b;  // deterministic tie-break
                    });
  candidates.resize(keep);
  std::sort(candidates.begin(), candidates.end());
  TopkSelection selection;
  selection.indices = std::move(candidates);
  selection.values.reserve(keep);
  for (const std::uint64_t i : selection.indices) {
    selection.values.push_back(params[i]);
  }
  return selection;
}

obs::Counter& raw_bytes_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("ledger.codec.raw_bytes");
  return counter;
}

obs::Counter& encoded_bytes_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("ledger.codec.encoded_bytes");
  return counter;
}

obs::Counter& payloads_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("ledger.codec.payloads");
  return counter;
}

obs::Histogram& encode_timing() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "ledger.codec.encode_us", obs::BucketLayout::exponential(1.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

obs::Histogram& decode_timing() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "ledger.codec.decode_us", obs::BucketLayout::exponential(1.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

/// Codes one payload's whole frame: every spec except the dense lossless
/// best-of, which CodecJob splits into two tasks.
EncodedPayload encode_frame(const PayloadCodecConfig& config,
                            std::span<const float> params,
                            std::span<const float> delta_base) {
  std::uint8_t flags = 0;
  if (!delta_base.empty()) flags |= kFlagDeltaUsed;
  if (config.topk) flags |= kFlagTopk;
  if (config.quantize) flags |= kFlagQuantize;
  if (config.entropy) flags |= kFlagEntropy;

  // Serialize the stage representation into `inner` (or, for the dense
  // lossless form, straight into `dense_plain`).
  ByteWriter inner;
  std::vector<std::uint8_t> dense_plain;
  if (config.topk) {
    const TopkSelection selection =
        select_topk(params, delta_base, config.topk_fraction);
    write_varint(inner, selection.indices.size());
    std::uint64_t previous = 0;
    for (std::size_t i = 0; i < selection.indices.size(); ++i) {
      write_varint(inner, selection.indices[i] - previous);
      previous = selection.indices[i];
    }
    if (config.quantize) {
      const nn::QuantizedParams quantized =
          nn::quantize_params(selection.values);
      inner.write_f32(quantized.scale);
      for (const std::int8_t v : quantized.values) {
        inner.write_u8(static_cast<std::uint8_t>(v));
      }
    } else {
      for (const float v : selection.values) inner.write_f32(v);
    }
  } else if (config.quantize) {
    // Dense 8-bit quantization of the update (or of the raw payload when
    // no base resolved).
    nn::ParamVector update(params.begin(), params.end());
    if (!delta_base.empty()) {
      for (std::size_t i = 0; i < update.size(); ++i) {
        update[i] -= delta_base[i];
      }
    }
    const nn::QuantizedParams quantized = nn::quantize_params(update);
    inner.write_f32(quantized.scale);
    for (const std::int8_t v : quantized.values) {
      inner.write_u8(static_cast<std::uint8_t>(v));
    }
  } else {
    dense_plain = dense_words(params, delta_base);
  }

  EncodedPayload encoded;
  encoded.param_count = params.size();
  ByteWriter out;
  out.write_u8(flags);
  write_varint(out, params.size());
  const bool dense = !dense_plain.empty();
  const std::vector<std::uint8_t> plain =
      dense ? std::move(dense_plain) : inner.take();
  if (config.entropy) {
    write_varint(out, plain.size());
    out.write_bytes(dense ? entropy_compress_words(plain, delta_base)
                          : entropy_compress(plain));
  } else {
    out.write_bytes(plain);
  }
  encoded.bytes = out.take();
  return encoded;
}

/// Frame of an entropy-coded dense word stream of `count` parameters.
EncodedPayload dense_frame(std::uint8_t flags, std::size_t count,
                           std::span<const std::uint8_t> coded) {
  EncodedPayload encoded;
  encoded.param_count = count;
  ByteWriter out;
  out.write_u8(flags);
  write_varint(out, count);
  write_varint(out, count * sizeof(std::uint32_t));
  out.write_bytes(coded);
  encoded.bytes = out.take();
  return encoded;
}

/// Dense lossless best-of: with entropy coding and a base, the encoder
/// codes both the XOR-delta and the raw word stream and keeps the smaller
/// (a payload unrelated to its parents, e.g. a poisoned publish,
/// compresses better without the base).
bool dense_best_of(const PayloadCodecConfig& config) {
  return config.delta && config.entropy && !config.lossy();
}

/// One payload through the codec. `run_jobs` gives every job a first task
/// and a best-of job a second: the first resolves the base, codes the
/// frame (for a best-of job, the XOR-delta stream, whose size it then
/// stores in `delta_size`), runs the self-check decode and hashes its
/// output into `digest`; the second codes the raw stream until it reaches
/// `delta_size`.
struct CodecJob {
  std::span<const float> params;
  // Parent payloads the first task averages into the base; empty when the
  // base is given in `base` or none resolves.
  std::vector<const nn::ParamVector*> parents;
  std::span<const float> base;
  nn::ParamVector averaged_base;
  bool best_of = false;
  bool verify = false;  // run the self-check decode (the publish path)
  Sha256Digest* digest = nullptr;  // verify only: receives the decoded hash
  std::atomic<std::size_t> delta_size{std::numeric_limits<std::size_t>::max()};
  std::vector<std::uint8_t> raw_coded;  // best-of: raw stream or its prefix
  EncodedPayload encoded;
  nn::ParamVector decoded;  // self-check output: the published payload
};

/// Decodes the job's frame as the published payload; a lossless spec must
/// give back the input bit for bit.
void self_check(const PayloadCodec& codec, CodecJob& job) {
  job.decoded = codec.decode(job.encoded, job.base);
  if (!codec.config().lossy() &&
      !std::equal(job.decoded.begin(), job.decoded.end(), job.params.begin(),
                  job.params.end(), [](float a, float b) {
                    return float_bits(a) == float_bits(b);
                  })) {
    throw std::logic_error(
        "PayloadPipeline: lossless codec round trip is not bit-exact");
  }
}

void code_first(const PayloadCodec& codec, CodecJob& job) {
  if (!job.parents.empty()) {
    job.averaged_base = nn::average_params(job.parents);
    job.base = job.averaged_base;
  }
  {
    obs::TraceScope span("ledger.codec.encode", &encode_timing());
    if (job.best_of) {
      const std::vector<std::uint8_t> coded =
          entropy_compress_words(dense_words(job.params, job.base), job.base);
      job.delta_size.store(coded.size());
      job.encoded = dense_frame(kFlagEntropy | kFlagDeltaUsed,
                                job.params.size(), coded);
    } else {
      job.encoded = encode_frame(
          codec.config(), job.params,
          codec.config().delta ? job.base : std::span<const float>{});
    }
  }
  if (job.verify) self_check(codec, job);
  if (job.digest != nullptr) *job.digest = ModelStore::hash_params(job.decoded);
}

void code_raw(CodecJob& job) {
  obs::TraceScope span("ledger.codec.encode", &encode_timing());
  job.raw_coded = entropy_compress_words(
      dense_words(job.params, std::span<const float>{}),
      std::span<const float>{}, &job.delta_size);
}

/// Runs every job's tasks on `pool` (serially without one), then settles
/// the best-of rule and the counters in job order. First tasks come before
/// raw tasks, so lanes claim the longer chains first; run serially, each
/// raw task starts after its delta size is stored.
void run_jobs(const PayloadCodec& codec, std::span<CodecJob> jobs,
              ThreadPool* pool) {
  std::vector<std::size_t> raw_jobs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].best_of) raw_jobs.push_back(i);
  }
  const auto task = [&](std::size_t i) {
    if (i < jobs.size()) {
      code_first(codec, jobs[i]);
    } else {
      code_raw(jobs[raw_jobs[i - jobs.size()]]);
    }
  };
  const std::size_t tasks = jobs.size() + raw_jobs.size();
  if (pool != nullptr) {
    pool->parallel_for(tasks, task);
  } else {
    for (std::size_t i = 0; i < tasks; ++i) task(i);
  }
  for (CodecJob& job : jobs) {
    // The raw stream wins only when strictly smaller. A raw task that gave
    // up returned a prefix at least as long as the delta stream, so this
    // picks what two full passes pick.
    if (job.best_of && job.raw_coded.size() < job.delta_size.load()) {
      job.encoded = dense_frame(kFlagEntropy | kFlagDenseRaw,
                                job.params.size(), job.raw_coded);
      if (job.verify) self_check(codec, job);
    }
    raw_bytes_counter().add(job.encoded.raw_bytes());
    encoded_bytes_counter().add(job.encoded.bytes.size());
    payloads_counter().increment();
  }
}

}  // namespace

EncodedPayload PayloadCodec::encode(std::span<const float> params,
                                    std::span<const float> base) const {
  if (!base.empty() && base.size() != params.size()) {
    throw std::invalid_argument(
        "PayloadCodec::encode: base/params size mismatch");
  }
  CodecJob job;
  job.params = params;
  job.base = base;
  job.best_of = dense_best_of(config_) && !base.empty();
  run_jobs(*this, std::span<CodecJob>(&job, 1), nullptr);
  return std::move(job.encoded);
}

nn::ParamVector PayloadCodec::decode(const EncodedPayload& encoded,
                                     std::span<const float> base) const {
  obs::TraceScope span("ledger.codec.decode", &decode_timing());
  ByteReader reader(encoded.bytes);
  const std::uint8_t flags = reader.read_u8();
  const std::uint64_t count = read_varint(reader);
  if (count != encoded.param_count) {
    throw SerializeError("payload codec: parameter count mismatch");
  }
  const bool delta_used = (flags & kFlagDeltaUsed) != 0;
  if (delta_used && base.size() != count) {
    throw SerializeError("payload codec: delta base unavailable or mismatched");
  }

  std::vector<std::uint8_t> plain;
  if ((flags & kFlagEntropy) != 0) {
    const std::uint64_t plain_size = read_varint(reader);
    check_plain_size(flags, count, plain_size);
    const bool dense = (flags & (kFlagTopk | kFlagQuantize)) == 0;
    const std::span<const float> dense_base =
        delta_used ? base : std::span<const float>{};
    plain = dense ? entropy_decompress_words(reader.read_bytes(), plain_size,
                                             dense_base)
                  : entropy_decompress(reader.read_bytes(), plain_size);
  } else {
    plain = reader.read_bytes();
  }
  if (!reader.exhausted()) {
    throw SerializeError("payload codec: trailing bytes");
  }
  ByteReader body(plain);

  nn::ParamVector out(count);
  if ((flags & kFlagTopk) != 0) {
    // Start from the base (or zero) and scatter the kept final values.
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = delta_used ? base[i] : 0.0f;
    }
    const std::uint64_t keep = read_varint(body);
    // Every kept index takes at least one varint byte.
    if (keep > count || keep > body.remaining()) {
      throw SerializeError("payload codec: topk count exceeds payload");
    }
    std::vector<std::uint64_t> indices(keep);
    std::uint64_t previous = 0;
    for (std::uint64_t i = 0; i < keep; ++i) {
      previous += read_varint(body);
      if (previous >= count) {
        throw SerializeError("payload codec: topk index out of range");
      }
      indices[i] = previous;
    }
    if ((flags & kFlagQuantize) != 0) {
      nn::QuantizedParams quantized;
      quantized.scale = read_quantize_scale(body);
      quantized.values.resize(keep);
      for (std::uint64_t i = 0; i < keep; ++i) {
        quantized.values[i] = static_cast<std::int8_t>(body.read_u8());
      }
      const nn::ParamVector values = nn::dequantize_params(quantized);
      for (std::uint64_t i = 0; i < keep; ++i) out[indices[i]] = values[i];
    } else {
      for (std::uint64_t i = 0; i < keep; ++i) {
        out[indices[i]] = body.read_f32();
      }
    }
  } else if ((flags & kFlagQuantize) != 0) {
    nn::QuantizedParams quantized;
    quantized.scale = read_quantize_scale(body);
    quantized.values.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      quantized.values[i] = static_cast<std::int8_t>(body.read_u8());
    }
    const nn::ParamVector update = nn::dequantize_params(quantized);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = delta_used ? base[i] + update[i] : update[i];
    }
  } else {
    if (plain.size() != count * sizeof(std::uint32_t)) {
      throw SerializeError("payload codec: dense payload size mismatch");
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t word = 0;
      std::memcpy(&word, plain.data() + i * 4, 4);
      if (delta_used) word ^= float_bits(base[i]);
      out[i] = bits_float(word);
    }
    return out;
  }
  if (!body.exhausted()) {
    throw SerializeError("payload codec: trailing stage bytes");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

PayloadCodecConfig parse_codec_spec(const std::string& spec) {
  PayloadCodecConfig config;
  if (spec.empty() || spec == "off") return config;
  if (spec == "default") {
    config.delta = true;
    config.entropy = true;
    return config;
  }
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    std::string token = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (token == "delta") {
      config.delta = true;
    } else if (token == "quantize") {
      config.quantize = true;
    } else if (token == "entropy") {
      config.entropy = true;
    } else if (token.rfind("topk", 0) == 0) {
      config.topk = true;
      if (token.size() > 4) {
        if (token[4] != ':') {
          throw std::invalid_argument("payload codec spec: bad stage '" +
                                      token + "'");
        }
        try {
          config.topk_fraction = std::stod(token.substr(5));
        } catch (const std::exception&) {
          throw std::invalid_argument(
              "payload codec spec: bad topk fraction in '" + token + "'");
        }
        if (!(config.topk_fraction > 0.0) || config.topk_fraction > 1.0) {
          throw std::invalid_argument(
              "payload codec spec: topk fraction must be in (0, 1]");
        }
      }
    } else {
      throw std::invalid_argument("payload codec spec: unknown stage '" +
                                  token + "'");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (config.topk && !config.delta) {
    // topk keeps the coordinates that moved furthest from the delta base;
    // without delta that base is zero and topk degenerates to plain
    // magnitude pruning of the model itself.
    throw std::invalid_argument("payload codec spec: topk requires delta");
  }
  return config;
}

std::string codec_spec_string(const PayloadCodecConfig& config) {
  if (!config.any_stage()) return "off";
  std::string spec;
  const auto append = [&](const std::string& stage) {
    if (!spec.empty()) spec += ',';
    spec += stage;
  };
  if (config.delta) append("delta");
  if (config.topk) {
    append("topk:" + std::to_string(config.topk_fraction));
  }
  if (config.quantize) append("quantize");
  if (config.entropy) append("entropy");
  return spec;
}

// ---------------------------------------------------------------------------
// Publish-path pipeline
// ---------------------------------------------------------------------------

void PayloadPipeline::process(std::span<const PipelinePublish> batch,
                              const Tangle& tangle, const ModelStore& store,
                              ThreadPool* pool) const {
  if (!active()) return;
  const PayloadCodecConfig& config = codec_.config();
  std::vector<CodecJob> jobs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    CodecJob& job = jobs[i];
    job.params = *batch[i].params;
    job.verify = true;
    job.digest = batch[i].digest;
    if (config.delta) {
      // The delta predictor is the average of the approved parents'
      // payloads (duplicates included) — exactly the base an honest node
      // trained from, and recomputable by any decoder from the transaction
      // header. A released (pruned) parent payload downgrades to "no base".
      for (const TxIndex parent : batch[i].parents) {
        const PayloadId payload = tangle.transaction(parent).payload;
        if (store.is_released(payload)) {
          job.parents.clear();
          break;
        }
        const nn::ParamVector& value = store.get(payload);
        if (value.size() != job.params.size()) {
          job.parents.clear();
          break;
        }
        job.parents.push_back(&value);
      }
    }
    job.best_of = dense_best_of(config) && !job.parents.empty() &&
                  !job.params.empty();
  }
  run_jobs(codec_, jobs, pool);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    *batch[i].params = std::move(jobs[i].decoded);
    if (batch[i].frame != nullptr) *batch[i].frame = std::move(jobs[i].encoded);
  }
}

}  // namespace tanglefl::tangle
