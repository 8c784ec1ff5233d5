#include "tangle/payload_codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "nn/privacy.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "support/sha256.hpp"
#include "support/thread_pool.hpp"

namespace tanglefl::tangle {
namespace {

std::uint32_t bits_of(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool bit_equal(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits_of(a[i]) != bits_of(b[i])) return false;
  }
  return true;
}

/// A payload that looks like a trained update: base + small perturbations
/// on a fraction of coordinates, so delta/topk/entropy all have structure
/// to work with.
struct CodecFixture {
  nn::ParamVector base;
  nn::ParamVector params;

  explicit CodecFixture(std::size_t n = 2048, std::uint64_t seed = 7) {
    Rng rng(seed);
    base.resize(n);
    params.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      base[i] = static_cast<float>(rng.normal()) * 0.3f;
      params[i] = base[i];
      if (rng.uniform() < 0.3) {
        params[i] += static_cast<float>(rng.normal()) * 0.01f;
      }
    }
  }
};

PayloadCodecConfig combo_config(unsigned combo) {
  PayloadCodecConfig config;
  config.delta = (combo & 1u) != 0;
  config.topk = (combo & 2u) != 0;
  config.topk_fraction = 0.05;
  config.quantize = (combo & 4u) != 0;
  config.entropy = (combo & 8u) != 0;
  return config;
}

// --------------------------------------------------------------- round trips

// For every stage combination, with and without a resolvable base:
// decode(encode(x)) must itself be a fixpoint of the codec — re-encoding
// the published payload and decoding again reproduces it bit-exactly.
// That is the ledger contract: the stored payload is exactly what any
// decoder reconstructs.
TEST(PayloadCodec, AllStageCombosRoundTripToPublishedPayload) {
  const CodecFixture f;
  const std::span<const float> no_base;
  for (unsigned combo = 0; combo < 16; ++combo) {
    const PayloadCodec codec(combo_config(combo));
    for (const bool with_base : {false, true}) {
      const std::span<const float> base =
          with_base ? std::span<const float>(f.base) : no_base;
      const EncodedPayload encoded = codec.encode(f.params, base);
      const nn::ParamVector published = codec.decode(encoded, base);
      ASSERT_EQ(published.size(), f.params.size())
          << "combo " << combo << " base " << with_base;
      const EncodedPayload re_encoded = codec.encode(published, base);
      const nn::ParamVector again = codec.decode(re_encoded, base);
      EXPECT_TRUE(bit_equal(published, again))
          << "combo " << combo << " base " << with_base
          << ": decode(encode(.)) is not idempotent";
    }
  }
}

TEST(PayloadCodec, LosslessCombosAreBitExact) {
  const CodecFixture f;
  const std::span<const float> no_base;
  for (unsigned combo = 0; combo < 16; ++combo) {
    const PayloadCodecConfig config = combo_config(combo);
    if (config.lossy()) continue;  // delta/entropy only
    const PayloadCodec codec(config);
    for (const bool with_base : {false, true}) {
      const std::span<const float> base =
          with_base ? std::span<const float>(f.base) : no_base;
      const nn::ParamVector decoded = codec.decode(codec.encode(f.params, base), base);
      EXPECT_TRUE(bit_equal(decoded, f.params))
          << "lossless combo " << combo << " base " << with_base;
    }
  }
}

TEST(PayloadCodec, LosslessPreservesSpecialValues) {
  // The dense lossless path works on raw float bit patterns; signed zeros,
  // denormals, infinities and NaN payloads must survive unchanged.
  nn::ParamVector params = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest(),
                            1.0f};
  nn::ParamVector base(params.size(), 0.5f);
  for (unsigned combo : {0u, 1u, 8u, 9u}) {  // off, delta, entropy, both
    const PayloadCodec codec(combo_config(combo));
    const nn::ParamVector decoded =
        codec.decode(codec.encode(params, base), base);
    EXPECT_TRUE(bit_equal(decoded, params)) << "combo " << combo;
  }
}

TEST(PayloadCodec, EmptyAndSingleParamPayloads) {
  const nn::ParamVector empty;
  const nn::ParamVector one = {0.25f};
  for (unsigned combo = 0; combo < 16; ++combo) {
    const PayloadCodec codec(combo_config(combo));
    const nn::ParamVector decoded_empty =
        codec.decode(codec.encode(empty, {}), {});
    EXPECT_TRUE(decoded_empty.empty()) << "combo " << combo;
    const nn::ParamVector decoded_one = codec.decode(codec.encode(one, {}), {});
    ASSERT_EQ(decoded_one.size(), 1u) << "combo " << combo;
  }
}

TEST(PayloadCodec, MismatchedBaseSizeThrows) {
  PayloadCodecConfig config;
  config.delta = true;
  const PayloadCodec codec(config);
  const nn::ParamVector params(8, 1.0f);
  const nn::ParamVector base(4, 0.0f);
  EXPECT_THROW((void)codec.encode(params, base), std::invalid_argument);
}

TEST(PayloadCodec, EncodeIsDeterministic) {
  const CodecFixture f;
  for (unsigned combo = 0; combo < 16; ++combo) {
    const PayloadCodec codec(combo_config(combo));
    const EncodedPayload a = codec.encode(f.params, f.base);
    const EncodedPayload b = codec.encode(f.params, f.base);
    EXPECT_EQ(a.bytes, b.bytes) << "combo " << combo;
  }
}

TEST(PayloadCodec, EntropyShrinksStructuredUpdates) {
  // A trained-update-shaped payload (most coordinates equal to the base)
  // must compress well below raw size under delta+entropy.
  const CodecFixture f(8192);
  PayloadCodecConfig config;
  config.delta = true;
  config.entropy = true;
  const PayloadCodec codec(config);
  const EncodedPayload encoded = codec.encode(f.params, f.base);
  EXPECT_LT(encoded.bytes.size(), encoded.raw_bytes() * 3 / 4);
  EXPECT_TRUE(bit_equal(codec.decode(encoded, f.base), f.params));
}

TEST(PayloadCodec, TopkKeepsRequestedFraction) {
  const CodecFixture f(1000);
  PayloadCodecConfig config;
  config.delta = true;
  config.topk = true;
  config.topk_fraction = 0.05;
  const PayloadCodec codec(config);
  const nn::ParamVector decoded =
      codec.decode(codec.encode(f.params, f.base), f.base);
  // At most 5% of coordinates moved off the base (the kept set), everything
  // else decodes to the base exactly.
  std::size_t moved = 0;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (bits_of(decoded[i]) != bits_of(f.base[i])) ++moved;
  }
  EXPECT_LE(moved, 50u);
  EXPECT_GT(moved, 0u);
}

/// A payload unrelated to any base (a poisoned publish's shape): fresh
/// N(0,1) draws, so the XOR-delta stream has no structure to exploit.
nn::ParamVector unrelated_payload(std::size_t n, std::uint64_t seed = 11) {
  Rng rng(seed);
  nn::ParamVector params(n);
  for (float& value : params) value = static_cast<float>(rng.normal());
  return params;
}

std::string digest_of(const EncodedPayload& encoded) {
  return to_hex(Sha256::hash(encoded.bytes));
}

TEST(PayloadCodec, BestOfDenseEncodingIsPinned) {
  // The dense best-of encoder codes the XOR-delta stream, then stops the raw
  // pass once it cannot win. The digests pin the exact chosen streams, as
  // encoded by the full two-pass encoder, for both outcomes.
  const CodecFixture near;  // delta wins: the raw pass stops early
  const nn::ParamVector unrelated = unrelated_payload(near.base.size());
  const PayloadCodec best_of(parse_codec_spec("delta,entropy"));
  const EncodedPayload near_encoded = best_of.encode(near.params, near.base);
  const EncodedPayload unrelated_encoded =
      best_of.encode(unrelated, near.base);
  // Leading flag byte: entropy plus delta-used when the delta stream won,
  // entropy plus dense-raw when the raw pass ran to completion and won.
  EXPECT_EQ(near_encoded.bytes.front(), 0x09);
  EXPECT_EQ(unrelated_encoded.bytes.front(), 0x18);
  EXPECT_EQ(digest_of(near_encoded),
            "47d6e69bc58a5acc13df198e1fb9c9c70cb8ad19bffaaf806900b7957d8d9d94");
  EXPECT_EQ(digest_of(unrelated_encoded),
            "cbb00e4170d78f75d137cd8473dd51680ab36f524c12410b27bfb62e531768e7");
  EXPECT_TRUE(
      bit_equal(best_of.decode(near_encoded, near.base), near.params));
  EXPECT_TRUE(
      bit_equal(best_of.decode(unrelated_encoded, near.base), unrelated));

  // Best-of never loses to coding the raw words alone.
  const PayloadCodec entropy_only(parse_codec_spec("entropy"));
  EXPECT_LE(near_encoded.bytes.size(),
            entropy_only.encode(near.params, near.base).bytes.size());
  EXPECT_LE(unrelated_encoded.bytes.size(),
            entropy_only.encode(unrelated, near.base).bytes.size());
}

TEST(PayloadCodec, StageBodyEncodingsArePinned) {
  // The period-1 entropy path (quantize and topk bodies) and the raw-word
  // dense path, pinned to the exact streams the encoder produces.
  const CodecFixture near;
  const nn::ParamVector unrelated = unrelated_payload(near.base.size());
  const auto encoded_digest = [&](const char* spec,
                                  std::span<const float> params) {
    const PayloadCodec codec(parse_codec_spec(spec));
    const EncodedPayload encoded = codec.encode(params, near.base);
    EXPECT_EQ(codec.decode(encoded, near.base).size(), params.size()) << spec;
    return digest_of(encoded);
  };
  EXPECT_EQ(encoded_digest("delta,quantize,entropy", near.params),
            "2420fdb2703f0f9fce60e51b77119d0ef4818ee7c2eb3b28df6a6e88709499e3");
  EXPECT_EQ(encoded_digest("delta,topk:0.05,entropy", near.params),
            "7de3001aa9a2d5ed509d37827b2d5af0abe12a2610b76c3af4d23563497ec68b");
  EXPECT_EQ(encoded_digest("entropy", unrelated),
            "8c87fe68ceb3b72f80c8ec52b27f9befc76e709425be6bb67a91f7ab4b59df51");
}

TEST(PayloadCodec, LongCodedStreamsRoundTrip) {
  // Incompressible words of 64K parameters code to a stream larger than
  // the input, so the encoder's output buffer grows well past its first
  // reservation.
  const nn::ParamVector unrelated = unrelated_payload(1u << 16, 5);
  std::vector<float> base(unrelated.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = -unrelated[unrelated.size() - 1 - i];
  }
  for (const char* spec : {"entropy", "delta,entropy"}) {
    const PayloadCodec codec(parse_codec_spec(spec));
    const EncodedPayload encoded = codec.encode(unrelated, base);
    EXPECT_GT(encoded.bytes.size(), unrelated.size() * sizeof(float) / 2)
        << spec;
    EXPECT_TRUE(bit_equal(codec.decode(encoded, base), unrelated)) << spec;
  }
}

TEST(PayloadCodec, OversizedPlainSizeThrowsBeforeAllocating) {
  // 12 crafted bytes: flags, count 1, an entropy plain size of 2^40 as a
  // varint, and four coder bytes. Decoding must reject the size before it
  // sizes any buffer by it, for the dense form and every stage body.
  for (const std::uint8_t flags : {0x08, 0x0A, 0x0C, 0x0E}) {
    EncodedPayload crafted;
    crafted.param_count = 1;
    crafted.bytes = {flags, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20,
                     0x00,  0x00, 0x00, 0x00};
    const PayloadCodec codec(parse_codec_spec("entropy"));
    EXPECT_THROW((void)codec.decode(crafted, {}), SerializeError)
        << "flags " << static_cast<int>(flags);
  }
}

// ---------------------------------------------------------------- batch path

/// A ledger to resolve delta bases from: genesis, tx 1 carrying the
/// fixture's base, and tx 2 whose payload has been released.
struct PipelineLedger {
  CodecFixture fixture;
  ModelStore store;
  Tangle tangle;
  TxIndex base_tx = 0;
  TxIndex released_tx = 0;

  PipelineLedger() : tangle(genesis(store, fixture.base.size())) {
    const TxIndex genesis_tx = tangle.genesis();
    const auto base = store.add(fixture.base);
    base_tx = tangle.add_transaction(std::span(&genesis_tx, 1), base.id,
                                     base.hash, 1);
    const auto pruned = store.add(unrelated_payload(fixture.base.size(), 3));
    released_tx = tangle.add_transaction(std::span(&genesis_tx, 1),
                                         pruned.id, pruned.hash, 1);
    store.release(pruned.id);
  }

  static Tangle genesis(ModelStore& store, std::size_t n) {
    const auto added = store.add(nn::ParamVector(n, 0.5f));
    return Tangle(added.id, added.hash);
  }
};

/// What one batch produced: published payloads, frame digests and the
/// ledger.codec.* counter totals it added.
struct BatchOutcome {
  std::vector<nn::ParamVector> published;
  std::vector<std::string> frames;
  std::uint64_t raw_bytes = 0;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t payloads = 0;
};

/// Runs `inputs` (payload, parents) through the pipeline: as one batch on
/// `pool`, or one publish at a time without a pool.
BatchOutcome run_pipeline(const PayloadPipeline& pipeline,
                          const PipelineLedger& ledger,
                          const std::vector<std::pair<nn::ParamVector,
                                                      std::vector<TxIndex>>>&
                              inputs,
                          bool one_at_a_time, ThreadPool* pool) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& raw = registry.counter("ledger.codec.raw_bytes");
  obs::Counter& encoded = registry.counter("ledger.codec.encoded_bytes");
  obs::Counter& payloads = registry.counter("ledger.codec.payloads");
  const std::uint64_t raw_before = raw.value();
  const std::uint64_t encoded_before = encoded.value();
  const std::uint64_t payloads_before = payloads.value();

  BatchOutcome outcome;
  outcome.published.reserve(inputs.size());
  std::vector<EncodedPayload> frames(inputs.size());
  std::vector<PipelinePublish> batch;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    outcome.published.push_back(inputs[i].first);
    batch.push_back({&outcome.published.back(), inputs[i].second, &frames[i]});
  }
  if (one_at_a_time) {
    for (const PipelinePublish& publish : batch) {
      pipeline.process(std::span(&publish, 1), ledger.tangle, ledger.store,
                       nullptr);
    }
  } else {
    pipeline.process(batch, ledger.tangle, ledger.store, pool);
  }
  for (const EncodedPayload& frame : frames) {
    outcome.frames.push_back(digest_of(frame));
  }
  outcome.raw_bytes = raw.value() - raw_before;
  outcome.encoded_bytes = encoded.value() - encoded_before;
  outcome.payloads = payloads.value() - payloads_before;
  return outcome;
}

TEST(PayloadPipeline, BatchMatchesOneAtATimeOnAnyPool) {
  // The batch codes a best-of payload as a delta task and a raw task that
  // may run concurrently; its output must equal coding one publish at a
  // time, whatever the pool. Inputs: a delta win, an unrelated payload
  // (raw wins), an empty parent list and a released parent (no base).
  const PipelineLedger ledger;
  const std::size_t n = ledger.fixture.base.size();
  const std::vector<std::pair<nn::ParamVector, std::vector<TxIndex>>> inputs =
      {{ledger.fixture.params, {ledger.base_tx, ledger.base_tx}},
       {unrelated_payload(n), {ledger.base_tx}},
       {ledger.fixture.params, {}},
       {ledger.fixture.params, {ledger.base_tx, ledger.released_tx}},
       {unrelated_payload(n, 5), {ledger.base_tx, ledger.base_tx}}};
  ThreadPool one_worker(1);
  ThreadPool three_workers(3);
  for (const char* spec :
       {"delta,entropy", "delta,quantize", "delta,quantize,entropy",
        "delta,topk:0.05", "delta,topk:0.05,entropy",
        "delta,topk:0.05,quantize,entropy"}) {
    const PayloadPipeline pipeline(parse_codec_spec(spec));
    const BatchOutcome serial =
        run_pipeline(pipeline, ledger, inputs, /*one_at_a_time=*/true, nullptr);
    EXPECT_EQ(serial.payloads, inputs.size()) << spec;
    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), &one_worker, &three_workers}) {
      const std::size_t workers = pool == nullptr ? 0 : pool->thread_count();
      const BatchOutcome batched =
          run_pipeline(pipeline, ledger, inputs, /*one_at_a_time=*/false, pool);
      ASSERT_EQ(batched.published.size(), serial.published.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_TRUE(bit_equal(batched.published[i], serial.published[i]))
            << spec << " workers " << workers << " publish " << i;
      }
      EXPECT_EQ(batched.frames, serial.frames) << spec << " workers " << workers;
      EXPECT_EQ(batched.raw_bytes, serial.raw_bytes) << spec;
      EXPECT_EQ(batched.encoded_bytes, serial.encoded_bytes) << spec;
      EXPECT_EQ(batched.payloads, serial.payloads) << spec;
    }
  }
}

TEST(PayloadPipeline, BatchFramesMatchTheCodec) {
  // The lossless frames are exactly PayloadCodec::encode against the
  // resolved base, for both best-of outcomes and for "no base".
  const PipelineLedger ledger;
  const std::size_t n = ledger.fixture.base.size();
  const nn::ParamVector unrelated = unrelated_payload(n);
  const std::vector<std::pair<nn::ParamVector, std::vector<TxIndex>>> inputs =
      {{ledger.fixture.params, {ledger.base_tx}},
       {unrelated, {ledger.base_tx}},
       {ledger.fixture.params, {ledger.released_tx}}};
  const PayloadCodecConfig config = parse_codec_spec("default");
  ThreadPool pool(3);
  const BatchOutcome batched =
      run_pipeline(PayloadPipeline(config), ledger, inputs, false, &pool);
  const PayloadCodec codec(config);
  const std::span<const float> base(ledger.fixture.base);
  const EncodedPayload delta_win = codec.encode(ledger.fixture.params, base);
  const EncodedPayload raw_win = codec.encode(unrelated, base);
  EXPECT_EQ(delta_win.bytes.front(), 0x09);
  EXPECT_EQ(raw_win.bytes.front(), 0x18);
  EXPECT_EQ(batched.frames[0], digest_of(delta_win));
  EXPECT_EQ(batched.frames[1], digest_of(raw_win));
  EXPECT_EQ(batched.frames[2], digest_of(codec.encode(ledger.fixture.params, {})));
  EXPECT_TRUE(bit_equal(batched.published[0], ledger.fixture.params));
  EXPECT_TRUE(bit_equal(batched.published[1], unrelated));
}

// ---------------------------------------------------------------- spec parse

TEST(CodecSpec, OffAndDefaultPresets) {
  const PayloadCodecConfig off = parse_codec_spec("off");
  EXPECT_FALSE(off.any_stage());
  const PayloadCodecConfig none = parse_codec_spec("");
  EXPECT_FALSE(none.any_stage());
  const PayloadCodecConfig preset = parse_codec_spec("default");
  EXPECT_TRUE(preset.delta);
  EXPECT_TRUE(preset.entropy);
  EXPECT_FALSE(preset.topk);
  EXPECT_FALSE(preset.quantize);
  EXPECT_FALSE(preset.lossy());
  EXPECT_EQ(codec_spec_string(preset),
            codec_spec_string(parse_codec_spec("delta,entropy")));
}

TEST(CodecSpec, FullListParses) {
  const PayloadCodecConfig config =
      parse_codec_spec("delta,topk:0.25,quantize,entropy");
  EXPECT_TRUE(config.delta);
  EXPECT_TRUE(config.topk);
  EXPECT_DOUBLE_EQ(config.topk_fraction, 0.25);
  EXPECT_TRUE(config.quantize);
  EXPECT_TRUE(config.entropy);
  EXPECT_TRUE(config.lossy());
  EXPECT_TRUE(parse_codec_spec("delta,topk:0.1,entropy").topk);
}

TEST(CodecSpec, SpecStringRoundTrips) {
  for (const char* spec : {"off", "delta", "delta,entropy",
                           "delta,quantize,entropy"}) {
    const PayloadCodecConfig config = parse_codec_spec(spec);
    EXPECT_EQ(codec_spec_string(config), spec);
    const PayloadCodecConfig reparsed = parse_codec_spec(codec_spec_string(config));
    EXPECT_EQ(codec_spec_string(reparsed), spec);
  }
}

TEST(CodecSpec, BadSpecsThrow) {
  EXPECT_THROW((void)parse_codec_spec("gzip"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("delta,"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("topk=0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("topk:abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("topk:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("topk:1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("delta,,entropy"), std::invalid_argument);
  // `chunk` is no stage; topk needs the delta base it sparsifies against.
  EXPECT_THROW((void)parse_codec_spec("chunk"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("delta,entropy,chunk"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("topk:0.1,entropy"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("quantize,topk,entropy"),
               std::invalid_argument);
}

// ------------------------------------------------------------ engine parity

data::FederatedDataset small_dataset() {
  data::FemnistSynthConfig config;
  config.num_users = 10;
  config.num_classes = 3;
  config.image_size = 8;
  config.mean_samples_per_user = 15.0;
  config.seed = 3;
  return data::make_femnist_synth(config);
}

nn::ModelFactory small_factory() {
  nn::ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.conv1_channels = 2;
  config.conv2_channels = 4;
  config.hidden = 8;
  return [config] { return nn::make_image_cnn(config); };
}

core::SimulationConfig fast_config(std::uint64_t rounds = 4) {
  core::SimulationConfig config;
  config.rounds = rounds;
  config.nodes_per_round = 4;
  config.eval_every = 2;
  config.eval_nodes_fraction = 0.5;
  config.node.training.epochs = 1;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 1;
  return config;
}

std::vector<std::string> tx_hexes(const Tangle& tangle) {
  std::vector<std::string> out;
  for (TxIndex i = 0; i < tangle.size(); ++i) {
    out.push_back(to_hex(tangle.transaction(i).id));
  }
  return out;
}

TEST(PayloadCodecEngine, LosslessCodecMatchesCodecOffBitExactly) {
  const auto dataset = small_dataset();
  const auto factory = small_factory();

  core::TangleSimulation off(dataset, factory, fast_config());
  const core::RunResult result_off = off.run();

  core::SimulationConfig codec_config = fast_config();
  codec_config.codec = parse_codec_spec("default");  // delta+entropy
  obs::Counter& encoded =
      obs::MetricsRegistry::global().counter("ledger.codec.payloads");
  const std::uint64_t encoded_before = encoded.value();
  core::TangleSimulation on(dataset, factory, codec_config);
  const core::RunResult result_on = on.run();

  // Same ledger (transaction ids hash payload bytes) and same accuracy
  // trajectory: the lossless codec is invisible to results.
  EXPECT_EQ(tx_hexes(on.tangle()), tx_hexes(off.tangle()));
  ASSERT_EQ(result_on.history.size(), result_off.history.size());
  for (std::size_t i = 0; i < result_on.history.size(); ++i) {
    EXPECT_EQ(result_on.history[i].accuracy, result_off.history[i].accuracy);
    EXPECT_EQ(result_on.history[i].loss, result_off.history[i].loss);
  }
  // And the codec actually ran on the published payloads.
  EXPECT_GT(encoded.value(), encoded_before);
}

TEST(PayloadCodecEngine, LossyCodecChangesPayloadsButStaysDeterministic) {
  const auto dataset = small_dataset();
  const auto factory = small_factory();

  core::SimulationConfig codec_config = fast_config();
  codec_config.codec = parse_codec_spec("delta,quantize,entropy");
  core::TangleSimulation a(dataset, factory, codec_config);
  (void)a.run();
  core::TangleSimulation b(dataset, factory, codec_config);
  (void)b.run();
  EXPECT_EQ(tx_hexes(a.tangle()), tx_hexes(b.tangle()));

  core::TangleSimulation off(dataset, factory, fast_config());
  (void)off.run();
  EXPECT_NE(tx_hexes(a.tangle()), tx_hexes(off.tangle()));
}

TEST(PayloadCodecEngine, BitIdenticalAcrossKernelThreadCounts) {
  const auto dataset = small_dataset();
  const auto factory = small_factory();

  std::vector<std::vector<std::string>> ledgers;
  std::vector<core::RunResult> results;
  for (const std::size_t kernel_threads : {1u, 2u, 4u}) {
    core::SimulationConfig config = fast_config();
    config.codec = parse_codec_spec("default");
    config.kernel_threads = kernel_threads;
    core::TangleSimulation sim(dataset, factory, config);
    results.push_back(sim.run());
    ledgers.push_back(tx_hexes(sim.tangle()));
  }
  for (std::size_t i = 1; i < ledgers.size(); ++i) {
    EXPECT_EQ(ledgers[i], ledgers[0]) << "kernel thread variant " << i;
    const auto& history = results[i].history;
    const auto& reference = results[0].history;
    ASSERT_EQ(history.size(), reference.size());
    for (std::size_t j = 0; j < history.size(); ++j) {
      EXPECT_EQ(history[j].accuracy, reference[j].accuracy);
      EXPECT_EQ(history[j].loss, reference[j].loss);
    }
  }
}

/// Published malicious payloads whose lossless frame, coded against the
/// average of their parents' payloads, keeps the raw stream.
std::size_t raw_wins(const core::TangleSimulation& sim) {
  const PayloadCodec codec(parse_codec_spec("default"));
  std::size_t wins = 0;
  for (TxIndex i = 1; i < sim.tangle().size(); ++i) {
    const Transaction& tx = sim.tangle().transaction(i);
    if (tx.publisher != "malicious") continue;
    std::vector<const nn::ParamVector*> parents;
    for (const TransactionId& parent : tx.parents) {
      parents.push_back(
          &sim.store().get(sim.tangle().transaction(*sim.tangle().find(parent))
                               .payload));
    }
    const nn::ParamVector base = nn::average_params(parents);
    if (codec.encode(sim.store().get(tx.payload), base).bytes.front() ==
        0x18) {
      ++wins;
    }
  }
  return wins;
}

TEST(PayloadCodecEngine, BitIdenticalAcrossPoolThreadCounts) {
  // The codec runs as round-pool tasks after the node steps and the
  // barrier commits in slot order, so ledger, history and deterministic
  // counters must not depend on how many lanes code. Random poisoning
  // publishes payloads unrelated to their parents, so the raw stream wins
  // inside the engine too.
  const auto dataset = small_dataset();
  const auto factory = small_factory();
  for (const std::string spec : {"default", "delta,quantize,entropy"}) {
    std::vector<std::vector<std::string>> ledgers;
    std::vector<core::RunResult> results;
    std::vector<std::string> snapshots;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      obs::MetricsRegistry::global().reset();
      core::SimulationConfig config = fast_config();
      config.codec = parse_codec_spec(spec);
      config.threads = threads;
      config.attack = core::AttackType::kRandomPoison;
      config.malicious_fraction = 0.3;
      config.attack_start_round = 2;
      core::TangleSimulation sim(dataset, factory, config);
      results.push_back(sim.run());
      ledgers.push_back(tx_hexes(sim.tangle()));
      snapshots.push_back(obs::MetricsRegistry::global()
                              .snapshot(obs::SnapshotKind::kDeterministic)
                              .to_json());
      if (spec == "default") {
        EXPECT_GT(raw_wins(sim), 0u) << threads;
      }
    }
    EXPECT_NE(snapshots[0].find("ledger.codec.payloads"), std::string::npos)
        << spec;
    for (std::size_t i = 1; i < ledgers.size(); ++i) {
      EXPECT_EQ(ledgers[i], ledgers[0]) << spec << " thread variant " << i;
      EXPECT_EQ(snapshots[i], snapshots[0]) << spec << " thread variant " << i;
      const auto& history = results[i].history;
      const auto& reference = results[0].history;
      ASSERT_EQ(history.size(), reference.size());
      for (std::size_t j = 0; j < history.size(); ++j) {
        EXPECT_EQ(history[j].accuracy, reference[j].accuracy);
        EXPECT_EQ(history[j].loss, reference[j].loss);
        EXPECT_EQ(history[j].tip_count, reference[j].tip_count);
        EXPECT_EQ(history[j].ledger_bytes, reference[j].ledger_bytes);
      }
    }
  }
}

}  // namespace
}  // namespace tanglefl::tangle
