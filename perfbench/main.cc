// osumac_perfbench: the OSU-MAC end-to-end benchmark program.
//
//   osumac_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Runs passes of one workload (see bench.h and README.md) for about S
// seconds and prints a human-readable report followed, as the last line, by
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   --trace 0  untraced passes only; metrics are the end-to-end set.
//   --trace 1  untraced and traced passes alternate at one thread; metrics
//              are the per-layer set, zone numbers from the traced passes.
//
// Every run also checks its outputs: each point against CheckResult, every
// pass's results digest against the first pass's, and (metro) a serial
// traced pass against the threaded untraced ones.  A point that fails any
// check counts in `failed`; `failed / attempted` is failed_frac.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/provenance.h"
#include "obs/wallclock.h"

namespace {

using perfbench::MetricMap;
using perfbench::PassOutput;

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return argc % 2 == 1 && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1) &&
         std::find(perfbench::WorkloadNames().begin(),
                   perfbench::WorkloadNames().end(),
                   args->workload) != perfbench::WorkloadNames().end();
}

/// The CPUs this process may run on, in order (`nproc` counts them).
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins the calling thread to `cpu`.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// This program's peak resident set, from /proc/self/status VmHWM.  Not
/// getrusage: its ru_maxrss carries over execve, so a launcher's larger
/// peak (run.py's Python) would hide the benchmark's own.  0 when unreadable.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// Counts the failed points of `pass`: those failing CheckResult and those
/// whose signature differs from the reference pass's.
std::int64_t FailedPoints(const PassOutput& pass, const PassOutput& reference,
                          const char* label) {
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < pass.signatures.size(); ++i) {
    const bool differs = i >= reference.signatures.size() ||
                         pass.signatures[i] != reference.signatures[i];
    if (differs) std::printf("FAIL %s: point %zu differs from the first pass\n", label, i);
    if (!pass.checks[i].empty()) {
      std::printf("FAIL check: point %zu: %s\n", i, pass.checks[i].c_str());
    }
    if (differs || !pass.checks[i].empty()) ++failed;
  }
  return failed;
}

void PrintMetrics(const MetricMap& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("  %-36s %16.6g %-9s %s\n", name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

void PrintJson(bool correct, std::int64_t attempted, std::int64_t failed,
               const MetricMap& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: osumac_perfbench --workload "
                 "{paper_sweep|lossy_cell|metro|policy_matrix} [--seed N] "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
  }
  const bool metro = args.workload == "metro";
  const std::vector<int> cpus = AllowedCpus();
  const int nproc = std::max(1, static_cast<int>(cpus.size()));
  const int threads = metro ? std::min(4, nproc) : 1;
#if defined(OSUMAC_PROFILER_DISABLED)
  const bool zones_compiled = false;
#else
  const bool zones_compiled = true;
#endif
  std::printf("# perfbench workload=%s seed=%" PRIu64 " trace=%d version=%s build=%s "
              "profiler=%s nproc=%d threads=%d\n",
              args.workload.c_str(), args.seed, args.trace,
              osumac::obs::BuildVersion(), osumac::obs::BuildType(),
              zones_compiled ? "ON" : "OFF", nproc, args.trace == 0 ? threads : 1);

  // Passes run until the next one would overrun the budget, at least
  // kMinPasses of each kind.
  constexpr std::size_t kMinPasses = 3;
  const osumac::obs::Stopwatch run_clock;
  std::vector<PassOutput> untraced;
  std::vector<PassOutput> traced;
  osumac::obs::Profiler tree;
  // Read after the first pass: the high-water mark of running the workload
  // once, not of however many passes' samples the budget lets us keep.
  double peak_rss_mb = 0.0;
  for (std::size_t pass = 0;; ++pass) {
    double pass_s = 0.0;
    // A single-threaded pass runs on the next CPU in turn.  Another tenant
    // of the host can slow one virtual CPU for many seconds; spread over all
    // of them, the passes on it are a minority that each stretch's median
    // (see ledger.cc) passes over.  Metro's pool uses every CPU already.
    if (!metro && !cpus.empty()) PinTo(cpus[pass % cpus.size()]);
    if (args.trace == 0) {
      untraced.push_back(perfbench::RunPass(args.workload, args.seed, threads, nullptr));
      if (untraced.size() == 1) peak_rss_mb = PeakRssMb();
      pass_s = untraced.back().time.wall_s;
    } else {
      untraced.push_back(perfbench::RunPass(args.workload, args.seed, 1, nullptr));
      osumac::obs::Profiler profiler;
      traced.push_back(perfbench::RunPass(args.workload, args.seed, 1, &profiler));
      tree.Merge(profiler);
      pass_s = untraced.back().time.wall_s + traced.back().time.wall_s;
    }
    if (untraced.size() >= kMinPasses && run_clock.Seconds() + pass_s > args.seconds) {
      break;
    }
  }

  // The metro thread-invariance check: the other kind of pass must agree on
  // NetworkCounters and the merged SLO summary (both in the signature).
  std::vector<PassOutput> cross;
  if (metro) {
    osumac::obs::Profiler scratch;
    cross.push_back(args.trace == 0
                        ? perfbench::RunPass(args.workload, args.seed, 1, &scratch)
                        : perfbench::RunPass(args.workload, args.seed, threads, nullptr));
  }

  const PassOutput& first = untraced.front();
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const auto* group : {&untraced, &traced, &cross}) {
    const char* label = group == &cross ? "thread invariance" : "repetition";
    for (const PassOutput& pass : *group) {
      attempted += static_cast<std::int64_t>(pass.signatures.size());
      failed += FailedPoints(pass, first, label);
    }
  }
  const bool correct = failed == 0;

  std::printf("# results digest %s: %016" PRIx64 " (%zu points per pass)\n",
              args.workload.c_str(), perfbench::ResultsDigest(first.signatures),
              first.signatures.size());
  std::printf("# passes: %zu untraced, %zu traced, %zu cross-check; %.3f s\n",
              untraced.size(), traced.size(), cross.size(), run_clock.Seconds());
  std::printf("  %-36s %16.6g %-9s %" PRId64 "/%" PRId64 " point runs\n", "failed_frac",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                            : 0.0,
              "ratio", failed, attempted);

  MetricMap metrics;
  if (args.trace == 0) {
    metrics = perfbench::EndToEndMetrics(untraced, peak_rss_mb);
  } else {
    std::string absent;
    metrics = perfbench::PerLayerMetrics(untraced, traced, tree, zones_compiled, &absent);
    if (!absent.empty()) std::printf("# %s\n", absent.c_str());
  }
  PrintMetrics(metrics);
  PrintJson(correct, attempted, failed, metrics);
  return 0;
}
