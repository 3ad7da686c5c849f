// Deterministic seed derivation for scenario runs.
//
// A ScenarioSpec carries ONE seed; every random stream a run consumes
// (cell, uplink workload, downlink workload, churn arrivals) is derived
// from it here.  Because derivation depends only on the spec — never on
// thread identity, run order, or shared state — a sweep produces
// bit-identical results at any worker count.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace osumac::exp {

// The SplitMix64 primitives historically lived here; they moved to
// common/rng.h so the phy channel models can share them without an
// exp dependency.  These aliases keep the exp:: spellings (and the exact
// derivation math the goldens pin) working.
using osumac::kSplitMix64Gamma;
using osumac::SplitMix64;

/// Independent random streams consumed by one scenario run.
enum class SeedStream : std::uint64_t {
  kCell = 0,      ///< the Cell's internal RNG (channel seeds, backoff, phases)
  kUplink = 1,    ///< Poisson uplink workload
  kDownlink = 2,  ///< Poisson downlink workload
  kChurn = 3,     ///< churn arrival gaps
  kNetwork = 4,   ///< multi-cell mobility walk + cross-cell chatter
  kMacPolicy = 5, ///< a MacPolicy tenant's plan randomness (PolicyCell)
};

/// Seed for `stream` of a run whose spec seed is `seed`.
///
/// Two streams keep the exact pre-engine derivations so the golden values
/// recorded before the refactor still hold bit-for-bit: the cell uses the
/// spec seed unchanged, and the uplink workload uses seed XOR the SplitMix64
/// gamma (what bench/sweep_common.h hard-coded).  New streams go through a
/// full SplitMix64 step keyed by the stream index.
inline std::uint64_t DeriveSeed(std::uint64_t seed, SeedStream stream) {
  switch (stream) {
    case SeedStream::kCell:
      return seed;
    case SeedStream::kUplink:
      return seed ^ kSplitMix64Gamma;
    default:
      return SplitMix64(seed + static_cast<std::uint64_t>(stream) * kSplitMix64Gamma);
  }
}

}  // namespace osumac::exp
