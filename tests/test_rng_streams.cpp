// Regression tests for the RNG stream registry (core/rng_streams.hpp).
// The pairwise-distinctness check is the one that would have caught the
// consensus/eval stream collision: the consensus walks derived
// from kEval.split(tangle_size) while evaluate() sampled eval users from
// kEval.split(round), so the two purposes shared a stream root and
// correlated whenever tangle_size == round.
#include "core/rng_streams.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/rng.hpp"

namespace tanglefl::core {
namespace {

TEST(RngStreams, AllStreamConstantsArePairwiseDistinct) {
  std::set<std::uint64_t> seen(streams::kAllStreams.begin(),
                               streams::kAllStreams.end());
  EXPECT_EQ(seen.size(), streams::kAllStreams.size())
      << "two purposes share a stream constant; their Rng::split streams "
         "would collide";
}

TEST(RngStreams, ConsensusStreamIsNotTheEvalStream) {
  // The specific collision this header fixed.
  EXPECT_NE(streams::kConsensus, streams::kEval);
}

TEST(RngStreams, SplitStreamsDecorrelate) {
  // Same master seed, different stream constants: the derived streams must
  // not reproduce each other's outputs. In particular the old collision
  // pattern — kEval.split(k) used for two different purposes — now maps to
  // kConsensus.split(k) vs kEval.split(k), which diverge for every k.
  Rng master(1234);
  for (std::uint64_t k = 1; k <= 64; ++k) {
    Rng consensus = master.split(streams::kConsensus).split(k);
    Rng eval = master.split(streams::kEval).split(k);
    bool differs = false;
    for (int draw = 0; draw < 4; ++draw) {
      if (consensus.uniform_index(1u << 30) != eval.uniform_index(1u << 30)) {
        differs = true;
        break;
      }
    }
    EXPECT_TRUE(differs) << "consensus and eval streams collide at k=" << k;
  }
}

TEST(RngStreams, HistoricalConstantsAreStable) {
  // These values are part of the determinism contract: changing one
  // silently reshuffles every same-seed run. Update deliberately or not at
  // all.
  EXPECT_EQ(streams::kParticipant, 0x9a57u);
  EXPECT_EQ(streams::kNode, 0x40deu);
  EXPECT_EQ(streams::kEval, 0xe7a1u);
  EXPECT_EQ(streams::kGenesis, 0x6e51u);
  EXPECT_EQ(streams::kWalk, 0x71b5u);
  EXPECT_EQ(streams::kReference, 0x3ef5u);
  EXPECT_EQ(streams::kTrain, 0x7a19u);
}

}  // namespace
}  // namespace tanglefl::core
