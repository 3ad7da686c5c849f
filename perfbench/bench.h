// The OSU-MAC benchmark: workloads, one pass's measurements, and the
// metric ledger built from them.
//
// A *pass* runs a workload's whole spec list once, start to finish, from
// one thread (a closed loop: the next cycle starts when the last
// one returned).  Host time is read only with obs::Stopwatch, around the
// library's public calls — ScenarioRun phases, RunScenario with policy
// hooks, Network::RunCycles / RandomWalk / SendMessage — and at the public
// OnCyclePlanned hook, which stamps the start of every measured cycle.
// A traced pass additionally installs an obs::Profiler on the calling thread
// for the measured window and hands back its zone tree.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/network_run.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "mac/network.h"
#include "obs/profiler.h"

namespace perfbench {

namespace exp = osumac::exp;

/// The seed make_figures gives every Section-5 point: with it, paper_sweep
/// reproduces the published figure sweep bit for bit.
inline constexpr std::uint64_t kDefaultSeed = 2001;

/// One named workload: either a list of single-cell specs (OSU or policy
/// tenants) or one multi-cell network with benchmark-generated chatter.
struct Workload {
  std::vector<exp::ScenarioSpec> specs;
  bool is_network = false;
  /// The metro network (cells, population, phases, mobility and chatter
  /// knobs, seed, threads); only read when is_network.
  exp::NetworkScenarioSpec network;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from the benchmark seed.  Every spec seed is the
/// benchmark seed itself (make_figures' convention: all points share one
/// spec seed) and every stream a run consumes derives from it through
/// exp::DeriveSeed.  `threads` sets the metro lockstep loop's workers.
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, int threads,
                  Workload* out);

/// True when both links of `spec` are error-free.
bool PerfectChannel(const exp::ScenarioSpec& spec);

/// The output checks behind `failed_frac`: an empty string when `result`
/// passes, else the first reason it fails.  Every figure and SLO number
/// must be finite and utilization within [0, 1]; `osu_tenant` adds the
/// paper's GPS access bound, `one_report_per_bus` (a perfect channel with
/// buses) requires exactly one GPS report per bus per cycle.  The delay
/// check reads the exact maximum, never a histogram quantile.
std::string CheckResult(const exp::RunResult& result, bool osu_tenant,
                        bool one_report_per_bus);

/// Simulated totals of one pass, over the measured windows.  A pure
/// function of the workload and seed: equal in every pass of a run.
struct Tally {
  std::int64_t cell_cycles = 0;      ///< measured cycles summed over cells
  std::int64_t lockstep_cycles = 0;  ///< metro: measured network cycles
  std::int64_t events = 0;           ///< simulator events in those cycles
  std::int64_t collisions = 0;
  std::int64_t contention_slots = 0;
  std::int64_t data_slots_used = 0;
  std::int64_t data_slots_offered = 0;
  std::int64_t arq_retransmissions = 0;
  /// Receptions the MAC counts as failed: base-station data and GPS decode
  /// failures, control-field sets missed, forward packets lost.
  std::int64_t failed_receptions = 0;
  std::int64_t uplink_messages = 0;    ///< offered uplink (metro: chatter)
  std::int64_t downlink_messages = 0;  ///< generated downlink
  std::int64_t handoffs = 0;
  std::int64_t backbone_messages = 0;
  std::int64_t walk_steps = 0;
  std::int64_t sends = 0;  ///< SendMessage calls
};

/// Host seconds of one pass, read with obs::Stopwatch.
struct PassTime {
  double wall_s = 0.0;      ///< spec list to checked results
  double setup_s = 0.0;     ///< spec build, construction, power-on, registration
  double populate_s = 0.0;  ///< power-on and registration cycles
  double warmup_s = 0.0;
  double measure_s = 0.0;
  double finish_s = 0.0;    ///< result assembly and checks
  double walk_s = 0.0;      ///< metro: inside Network::RandomWalk
  double send_s = 0.0;      ///< metro: inside Network::SendMessage
  /// Host seconds of every measured notification cycle, one list per point
  /// in spec order (metro: one list, of every lockstep cycle, i.e. one
  /// Network::RunCycles(1)).
  std::vector<std::vector<double>> cycle_s;
  /// The rest of the pass, cut into stretches timed one by one, in the
  /// order they ran.  Set-up: the spec build, then per point construction
  /// and power-on and each registration cycle (metro: construction and
  /// BuildPopulation).  Other: per point each warm-up cycle and the finish
  /// (metro: Warmup, each mobility step's RandomWalk and SendMessage calls,
  /// Finish).  With cycle_s they cover wall_s.  Every pass repeats the same
  /// simulated work, so stretch i of one pass did exactly what stretch i of
  /// any other did.
  std::vector<double> setup_parts_s;
  std::vector<double> other_parts_s;
};

/// Everything one pass produced.
struct PassOutput {
  PassTime time;
  Tally tally;
  /// exp::ResultSignature of every point (metro: one), in spec order.
  std::vector<std::string> signatures;
  /// CheckResult of every point, in spec order ("" = passed).
  std::vector<std::string> checks;
};

/// Runs `workload` once on `threads` lockstep workers (metro only).  A
/// non-null `profiler` is installed on the calling thread for every measured
/// window; pool workers have no profiler, so a traced pass runs at one
/// thread whatever `threads` says.
PassOutput RunPass(const std::string& workload, std::uint64_t seed,
                   int threads, osumac::obs::Profiler* profiler);

/// FNV-1a digest of a pass's point signatures: the results digest.
std::uint64_t ResultsDigest(const std::vector<std::string>& signatures);

// --- the metric ledger -----------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or derivation, for the human table
};

/// Metrics by name.  std::map so the printed order is fixed.
using MetricMap = std::map<std::string, Metric>;

/// The end-to-end metrics of untraced passes: setup_s, wall_s,
/// cell_cycles_per_s, cycle_ms_p50, cycle_ms_p99 and peak_rss_mb.  Each
/// timed stretch and measured cycle counts at its median host time over the
/// passes (see README.md, "Steadiness and bounds").
MetricMap EndToEndMetrics(const std::vector<PassOutput>& passes,
                          double peak_rss_mb);

/// The per-layer metrics of a trace run.  `untraced` and `traced` ran at
/// the same thread count; `tree` is the merged zone tree of the traced
/// passes.  With `zones_compiled` false the zone metrics are left out and
/// `*absent` explains why; they are never reported as zeros.
MetricMap PerLayerMetrics(const std::vector<PassOutput>& untraced,
                          const std::vector<PassOutput>& traced,
                          const osumac::obs::Profiler& tree,
                          bool zones_compiled, std::string* absent);

}  // namespace perfbench
