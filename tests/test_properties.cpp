// Property-based sweeps (parameterized gtest): structural invariants that
// must hold for entire families of inputs — random tangles, random models,
// random parameter vectors — rather than single examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "nn/model_zoo.hpp"
#include "nn/params.hpp"
#include "support/serialize.hpp"
#include "tangle/confidence.hpp"
#include "tangle/model_store.hpp"
#include "tangle/tip_selection.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl {
namespace {

// ------------------------------------------------------- random tangles

struct TangleParams {
  std::uint64_t seed;
  std::size_t transactions;
  std::size_t max_parents;
  double alpha;
};

void PrintTo(const TangleParams& p, std::ostream* os) {
  *os << "seed=" << p.seed << " tx=" << p.transactions
      << " parents=" << p.max_parents << " alpha=" << p.alpha;
}

class TangleInvariants : public ::testing::TestWithParam<TangleParams> {
 protected:
  TangleInvariants() : tangle_(make_genesis(store_)) {
    const TangleParams& p = GetParam();
    Rng rng(p.seed);
    tangle::TipSelectionConfig config;
    config.alpha = p.alpha;
    for (std::size_t i = 1; i < p.transactions; ++i) {
      const tangle::TangleView view = tangle_.view();
      const std::size_t parents =
          1 + rng.uniform_index(p.max_parents);
      const auto tips = tangle::select_tips(
          *tangle::ViewCacheEntry::build(view), parents, rng, config);
      const auto added = store_.add({static_cast<float>(i)});
      tangle_.add_transaction(tips, added.id, added.hash, 1 + i / 5);
    }
  }

  static tangle::Tangle make_genesis(tangle::ModelStore& store) {
    const auto added = store.add({0.0f});
    return tangle::Tangle(added.id, added.hash);
  }

  tangle::ModelStore store_;
  tangle::Tangle tangle_;
};

TEST_P(TangleInvariants, ParentsPrecedeChildren) {
  for (tangle::TxIndex i = 1; i < tangle_.size(); ++i) {
    for (const tangle::TxIndex p : tangle_.parent_indices(i)) {
      EXPECT_LT(p, i);
    }
  }
}

TEST_P(TangleInvariants, TipsHaveNoApprovers) {
  const tangle::TangleView view = tangle_.view();
  const auto tips = view.tips();
  EXPECT_FALSE(tips.empty());
  for (const tangle::TxIndex t : tips) {
    EXPECT_TRUE(view.approvers(t).empty());
  }
}

TEST_P(TangleInvariants, NonTipsHaveApprovers) {
  const tangle::TangleView view = tangle_.view();
  const auto tips = view.tips();
  for (tangle::TxIndex i = 0; i < view.size(); ++i) {
    const bool is_tip = std::find(tips.begin(), tips.end(), i) != tips.end();
    EXPECT_EQ(view.approvers(i).empty(), is_tip);
  }
}

TEST_P(TangleInvariants, ConeSizesCountTheSamePairs) {
  // Both cone computations count the ordered reachability pairs, so their
  // totals must agree.
  const tangle::TangleView view = tangle_.view();
  const auto past = view.past_cone_sizes();
  const auto future = view.future_cone_sizes();
  const auto sum = [](const std::vector<std::uint32_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  };
  EXPECT_EQ(sum(past), sum(future));
}

TEST_P(TangleInvariants, EveryTransactionApprovesGenesis) {
  const tangle::TangleView view = tangle_.view();
  const auto past = view.past_cone_sizes();
  for (tangle::TxIndex i = 1; i < view.size(); ++i) {
    EXPECT_TRUE(view.approves(i, tangle_.genesis()));
    EXPECT_GE(past[i], 1u);
  }
}

TEST_P(TangleInvariants, ApprovesAgreesWithFutureCones) {
  // future_cone[genesis] must equal the number of transactions approving
  // genesis, which is everyone else.
  const tangle::TangleView view = tangle_.view();
  const auto future = view.future_cone_sizes();
  EXPECT_EQ(future[tangle_.genesis()], view.size() - 1);
}

TEST_P(TangleInvariants, WalksTerminateAtTips) {
  const tangle::TangleView view = tangle_.view();
  const auto cones = tangle::ViewCacheEntry::build(view);
  const auto tips = view.tips();
  Rng rng(GetParam().seed + 1);
  tangle::TipSelectionConfig config;
  config.alpha = GetParam().alpha;
  for (int i = 0; i < 32; ++i) {
    const tangle::TxIndex tip = tangle::random_walk_tip(*cones, rng, config);
    EXPECT_TRUE(std::find(tips.begin(), tips.end(), tip) != tips.end());
  }
}

TEST_P(TangleInvariants, ConfidencesAreProbabilities) {
  Rng rng(GetParam().seed + 2);
  tangle::ConfidenceConfig config;
  config.sample_rounds = 16;
  const tangle::TangleView view = tangle_.view();
  const auto confidences = tangle::compute_confidences(
      view, *tangle::ViewCacheEntry::build(view), rng, config);
  ASSERT_EQ(confidences.size(), view.size());
  for (const double c : confidences.values) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
  EXPECT_DOUBLE_EQ(confidences[tangle_.genesis()], 1.0);
}

TEST_P(TangleInvariants, SerializeRoundTripIdentical) {
  // Round trip through the ledger's own headers: replaying every header
  // into a fresh tangle reproduces the dump byte for byte, so the dump
  // depends on the ledger's content alone.
  tangle::Tangle replay(tangle_.transaction(0).payload,
                        tangle_.transaction(0).payload_hash);
  for (tangle::TxIndex i = 1; i < tangle_.size(); ++i) {
    const tangle::Transaction& tx = tangle_.transaction(i);
    replay.add_transaction(tangle_.parent_indices(i), tx.payload,
                           tx.payload_hash, tx.round, tx.publisher);
  }
  ByteWriter original, replayed;
  tangle_.serialize(original);
  replay.serialize(replayed);
  EXPECT_EQ(replayed.bytes(), original.bytes());
}

TEST_P(TangleInvariants, PrefixViewsAreMonotonic) {
  // Growing the view can only grow cone sizes.
  const std::size_t half = tangle_.size() / 2;
  if (half < 2) GTEST_SKIP();
  const auto small = tangle_.view_prefix(half).future_cone_sizes();
  const auto full = tangle_.view().future_cone_sizes();
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_LE(small[i], full[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTangles, TangleInvariants,
    ::testing::Values(TangleParams{1, 12, 2, 0.0},
                      TangleParams{2, 40, 2, 0.01},
                      TangleParams{3, 80, 2, 0.1},
                      TangleParams{4, 40, 3, 0.0},
                      TangleParams{5, 60, 3, 1.0},
                      TangleParams{6, 25, 1, 0.5},
                      TangleParams{7, 100, 2, 0.05}));

// ----------------------------------------------------- model round trips

struct ModelParams {
  std::string name;
  std::size_t variant;
  std::uint64_t seed;
};

void PrintTo(const ModelParams& p, std::ostream* os) {
  *os << p.name << "/" << p.variant << " seed=" << p.seed;
}

nn::Model build_model(const ModelParams& p) {
  if (p.name == "mlp") {
    return nn::make_mlp(3 + p.variant, 4 + 2 * p.variant, 2 + p.variant);
  }
  if (p.name == "cnn") {
    nn::ImageCnnConfig config;
    config.image_size = 8 + 4 * p.variant;
    config.num_classes = 3 + p.variant;
    config.conv1_channels = 2 + p.variant;
    config.conv2_channels = 4;
    config.hidden = 8;
    return nn::make_image_cnn(config);
  }
  nn::CharLstmConfig config;
  config.vocab_size = 8 + 4 * p.variant;
  config.seq_length = 4 + p.variant;
  config.embedding_dim = 4;
  config.hidden_dim = 8;
  config.lstm_layers = 1 + p.variant % 2;
  return nn::make_char_lstm(config);
}

nn::Tensor model_input(const ModelParams& p, Rng& rng) {
  if (p.name == "mlp") {
    nn::Tensor x({2, 3 + p.variant});
    for (auto& v : x.values()) v = static_cast<float>(rng.normal());
    return x;
  }
  if (p.name == "cnn") {
    nn::Tensor x({2, 1, 8 + 4 * p.variant, 8 + 4 * p.variant});
    for (auto& v : x.values()) v = static_cast<float>(rng.normal());
    return x;
  }
  nn::Tensor x({2, 4 + p.variant});
  for (auto& v : x.values()) {
    v = static_cast<float>(rng.uniform_index(8 + 4 * p.variant));
  }
  return x;
}

class ModelProperties : public ::testing::TestWithParam<ModelParams> {};

TEST_P(ModelProperties, ParameterRoundTrip) {
  nn::Model model = build_model(GetParam());
  Rng rng(GetParam().seed);
  model.init(rng);
  const auto params = model.get_parameters();
  EXPECT_EQ(params.size(), model.parameter_count());

  nn::Model other = build_model(GetParam());
  other.set_parameters(params);
  EXPECT_EQ(other.get_parameters(), params);
}

TEST_P(ModelProperties, CloneIsBehaviorallyIdentical) {
  nn::Model model = build_model(GetParam());
  Rng rng(GetParam().seed);
  model.init(rng);
  nn::Model copy = model.clone();

  Rng input_rng(GetParam().seed + 1);
  const nn::Tensor x = model_input(GetParam(), input_rng);
  const nn::Tensor ya = model.forward(x, false);
  const nn::Tensor yb = copy.forward(x, false);
  EXPECT_EQ(ya.shape(), yb.shape());
  EXPECT_TRUE(std::ranges::equal(ya.values(), yb.values()));
}

TEST_P(ModelProperties, SetParametersChangesForward) {
  nn::Model model = build_model(GetParam());
  Rng rng(GetParam().seed);
  model.init(rng);
  Rng input_rng(GetParam().seed + 1);
  const nn::Tensor x = model_input(GetParam(), input_rng);
  const nn::Tensor before = model.forward(x, false);

  std::vector<float> zeros(model.parameter_count(), 0.0f);
  model.set_parameters(zeros);
  const nn::Tensor after = model.forward(x, false);
  EXPECT_FALSE(std::ranges::equal(before.values(), after.values()));
  // All-zero parameters produce all-zero logits for these stacks.
  for (const float v : after.values()) EXPECT_EQ(v, 0.0f);
}

TEST_P(ModelProperties, GradientsSizedLikeParameters) {
  nn::Model model = build_model(GetParam());
  Rng rng(GetParam().seed);
  model.init(rng);
  EXPECT_EQ(model.get_gradients().size(), model.parameter_count());
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, ModelProperties,
    ::testing::Values(ModelParams{"mlp", 0, 1}, ModelParams{"mlp", 2, 2},
                      ModelParams{"cnn", 0, 3}, ModelParams{"cnn", 1, 4},
                      ModelParams{"lstm", 0, 5}, ModelParams{"lstm", 1, 6}));

// ------------------------------------------------- parameter averaging

class AveragingProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AveragingProperties, MeanWithinBounds) {
  const std::size_t count = GetParam();
  Rng rng(count);
  std::vector<nn::ParamVector> params(count);
  for (auto& p : params) {
    p.resize(32);
    for (auto& v : p) v = static_cast<float>(rng.normal());
  }
  const nn::ParamVector avg = nn::average_params(params);
  for (std::size_t i = 0; i < 32; ++i) {
    float lo = params[0][i], hi = params[0][i];
    for (const auto& p : params) {
      lo = std::min(lo, p[i]);
      hi = std::max(hi, p[i]);
    }
    EXPECT_GE(avg[i], lo - 1e-5f);
    EXPECT_LE(avg[i], hi + 1e-5f);
  }
}

TEST_P(AveragingProperties, IdenticalInputsAreFixedPoint) {
  const std::size_t count = GetParam();
  Rng rng(count + 100);
  nn::ParamVector base(16);
  for (auto& v : base) v = static_cast<float>(rng.normal());
  const std::vector<nn::ParamVector> params(count, base);
  const nn::ParamVector avg = nn::average_params(params);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(avg[i], base[i], 1e-5f);
  }
}

TEST_P(AveragingProperties, OrderInvariant) {
  const std::size_t count = GetParam();
  Rng rng(count + 200);
  std::vector<nn::ParamVector> params(count);
  for (auto& p : params) {
    p.resize(8);
    for (auto& v : p) v = static_cast<float>(rng.normal());
  }
  const nn::ParamVector forward = nn::average_params(params);
  std::reverse(params.begin(), params.end());
  const nn::ParamVector backward = nn::average_params(params);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(forward[i], backward[i], 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, AveragingProperties,
                         ::testing::Values(1, 2, 3, 5, 10, 32));

// ----------------------------------------------- serialization fuzzing

class SerializeProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeProperties, RandomParamsRoundTrip) {
  // The payload codec's per-value layout: one write_f32 per parameter.
  Rng rng(GetParam());
  nn::ParamVector params(rng.uniform_index(200));
  for (auto& v : params) v = static_cast<float>(rng.normal(0.0, 100.0));
  ByteWriter writer;
  for (const float v : params) writer.write_f32(v);
  ByteReader reader(writer.bytes());
  nn::ParamVector back(params.size());
  for (auto& v : back) v = reader.read_f32();
  EXPECT_EQ(back, params);
  EXPECT_TRUE(reader.exhausted());
}

TEST_P(SerializeProperties, TruncationAlwaysThrows) {
  // The payload codec's stream frame: a flag byte, then one length-prefixed
  // blob. Any cut into it must raise, never read past the end.
  Rng rng(GetParam() + 1000);
  std::vector<std::uint8_t> blob(8 + rng.uniform_index(64));
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  ByteWriter writer;
  writer.write_u8(1);
  writer.write_bytes(blob);
  auto bytes = writer.take();
  const std::size_t cut = 1 + rng.uniform_index(bytes.size() - 1);
  bytes.resize(bytes.size() - cut);
  ByteReader reader(bytes);
  EXPECT_THROW(
      {
        (void)reader.read_u8();
        (void)reader.read_bytes();
      },
      SerializeError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeProperties,
                         ::testing::Range<std::uint64_t>(0, 10));

// --------------------------------------------------------- rng sweeps

class DirichletProperties : public ::testing::TestWithParam<double> {};

TEST_P(DirichletProperties, SimplexMembership) {
  Rng rng(static_cast<std::uint64_t>(GetParam() * 1000));
  for (const std::size_t k : {2u, 5u, 17u}) {
    const auto sample = rng.dirichlet(GetParam(), k);
    double total = 0.0;
    for (const double s : sample) {
      EXPECT_GE(s, 0.0);
      total += s;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, DirichletProperties,
                         ::testing::Values(0.05, 0.1, 0.5, 1.0, 5.0, 50.0));

}  // namespace
}  // namespace tanglefl
