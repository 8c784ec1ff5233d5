// Named RNG stream constants for every purpose-keyed Rng::split in the
// simulation engines and node behaviours. Collecting them in one place
// serves two goals:
//
//   * every (engine, purpose) pair provably gets its own stream — the
//     regression tests assert pairwise distinctness, which would have
//     caught the consensus/eval stream collision this header fixes:
//     the consensus walks used to derive from kEval.split(tangle_size)
//     while evaluate() derived from kEval.split(round), so whenever
//     tangle_size == round the eval-user sampling was perfectly
//     correlated with the reference confidence walks;
//   * the constants keep their historical values, so same-seed runs stay
//     bit-identical with earlier builds everywhere except the fixed
//     consensus stream.
#pragma once

#include <array>
#include <cstdint>

namespace tanglefl::core::streams {

// Engine-level streams, split directly off the master seed.
inline constexpr std::uint64_t kParticipant = 0x9a57;  // per-round user sampling
inline constexpr std::uint64_t kNode = 0x40de;         // per-(round, user) node step
inline constexpr std::uint64_t kEval = 0xe7a1;         // eval-user sampling
inline constexpr std::uint64_t kConsensus = 0xc0f5;    // reference/consensus walks
inline constexpr std::uint64_t kGenesis = 0x6e51;      // genesis model init
inline constexpr std::uint64_t kMalicious = 0x3a11;    // malicious-user selection
inline constexpr std::uint64_t kWake = 0xa57c;         // async Poisson wakeups
inline constexpr std::uint64_t kLoss = 0x105e;         // async publish loss trials
inline constexpr std::uint64_t kTopology = 0x70b0;     // gossip peer graph
inline constexpr std::uint64_t kPull = 0x9055;         // gossip pull failures
inline constexpr std::uint64_t kHealth = 0x6ea7;       // DAG health-probe walks

// Node-internal streams, split off the per-step NodeContext rng.
inline constexpr std::uint64_t kWalk = 0x71b5;          // tip-selection walks
inline constexpr std::uint64_t kReference = 0x3ef5;     // per-node reference walks
inline constexpr std::uint64_t kTrain = 0x7a19;         // local SGD shuffling
inline constexpr std::uint64_t kDp = 0xd9a1;            // DP sanitization noise
inline constexpr std::uint64_t kPoisonNoise = 0xbad5;   // random-poison payloads
inline constexpr std::uint64_t kBackdoorData = 0xbd00;  // backdoor split sampling
inline constexpr std::uint64_t kTiming = 0x717e;        // async training durations

/// Every stream constant above, for the pairwise-distinctness regression
/// test. Keep in sync when adding a stream.
inline constexpr std::array<std::uint64_t, 18> kAllStreams = {
    kParticipant, kNode,  kEval,     kConsensus, kGenesis,     kMalicious,
    kWake,        kLoss,  kTopology, kPull,      kHealth,      kWalk,
    kReference,   kTrain, kDp,       kPoisonNoise, kBackdoorData, kTiming,
};

}  // namespace tanglefl::core::streams
