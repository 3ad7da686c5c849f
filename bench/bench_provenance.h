// Run-provenance header for benches: every bench prints one line saying
// which build produced its numbers (git describe + build type) and with
// what seed/config, so results stay comparable across checkouts.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "exp/runner.h"
#include "obs/provenance.h"

namespace osumac::bench {

/// Prints the one-line provenance header.  Call first thing in main().
inline void PrintProvenance(const char* tool, std::uint64_t seed = 0,
                            const std::string& config = "") {
  std::printf("%s\n", obs::ProvenanceLine(tool, seed, config).c_str());
}

/// Worker count from --jobs/-j (exp::JobsFromArgs); a bad value is
/// reported by flag name and exits with status 1 before anything runs.
inline int JobsOrExit(int argc, char** argv, int fallback = 1) {
  try {
    return exp::JobsFromArgs(argc, argv, fallback);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "bench", e.what());
    std::exit(1);
  }
}

}  // namespace osumac::bench

/// Drop-in replacement for BENCHMARK_MAIN() that prints the provenance
/// header before running google-benchmark.
#define OSUMAC_BENCHMARK_MAIN(tool)                                     \
  int main(int argc, char** argv) {                                     \
    ::osumac::bench::PrintProvenance(tool);                             \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                              \
    ::benchmark::Shutdown();                                            \
    return 0;                                                           \
  }
