// Self-test of the benchmark harness.
//
//   python3 perfbench/run.py --selftest     (or ctest in the build tree)
//
// * Harness fidelity: the probed, timed passes give every point exactly the
//   result exp::SweepRunner(1) gives on the same specs, traced or not; with
//   the default seed, paper_sweep reproduces the Section-5 points recorded
//   in BENCH_sweeps.json.  So neither the cycle probe nor the profiler
//   perturbs the simulation.
// * Metro: a serial traced pass gives exp::NetworkScenarioRun's result, and
//   threaded untraced passes agree with it on NetworkCounters and the merged
//   SLO summary.
// * The timed stretches of a pass cover its wall time, and the end-to-end
//   metrics, which count each stretch at its median over the passes, lie
//   between the fastest and the slowest pass.
// * The output checks reject what they should, zone metrics are absent
//   (never zero) when zones are compiled out, and every seed follows the
//   benchmark seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "exp/emit.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

Workload Make(const std::string& name, std::uint64_t seed, int threads = 1) {
  Workload w;
  Expect(MakeWorkload(name, seed, threads, &w), "MakeWorkload(" + name + ")");
  return w;
}

/// The point blocks of a sweep JSON document (WriteSweepJson's layout: each
/// point opens a line with `{"name":`), trailing separators stripped.
std::vector<std::string> PointBlocks(const std::string& json) {
  std::vector<std::string> blocks;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  ]", 0) == 0) break;  // end of the points array
    if (line.rfind("    {\"name\":", 0) == 0) {
      blocks.emplace_back();
    } else if (blocks.empty()) {
      continue;
    }
    blocks.back() += line + "\n";
  }
  for (std::string& b : blocks) {
    while (!b.empty() && (b.back() == '\n' || b.back() == ',')) b.pop_back();
  }
  return blocks;
}

void TestFidelity(const std::string& name) {
  const Workload w = Make(name, kDefaultSeed);
  const std::vector<exp::RunResult> reference = exp::SweepRunner(1).Run(w.specs);
  osumac::obs::Profiler profiler;
  const PassOutput timed = RunPass(name, kDefaultSeed, 1, nullptr);
  const PassOutput traced = RunPass(name, kDefaultSeed, 1, &profiler);
  Expect(timed.signatures.size() == reference.size(), name + ": point count");
  for (std::size_t i = 0; i < reference.size() && i < timed.signatures.size(); ++i) {
    const std::string want = exp::ResultSignature(reference[i]);
    Expect(timed.signatures[i] == want, name + ": timed pass differs at " + w.specs[i].name);
    Expect(traced.signatures[i] == want, name + ": traced pass differs at " + w.specs[i].name);
  }
  for (const std::string& check : timed.checks) Expect(check.empty(), name + ": " + check);
  Expect(!profiler.empty(), name + ": traced pass recorded no zones");
  std::size_t samples = 0;
  for (const std::vector<double>& point : timed.time.cycle_s) samples += point.size();
  Expect(timed.time.cycle_s.size() == w.specs.size() &&
             samples == static_cast<std::size_t>(timed.tally.cell_cycles),
         name + ": one probe sample per measured cycle");
  if (name != "paper_sweep") return;

  std::ifstream file(PERFBENCH_SWEEPS_JSON);
  if (!file) {
    std::printf("note: %s not found; published-sweep comparison skipped\n",
                PERFBENCH_SWEEPS_JSON);
    return;
  }
  std::stringstream published;
  published << file.rdbuf();
  std::ostringstream ours;
  // The reference results equal the timed pass's, signature for signature.
  exp::WriteSweepJson(ours, "perfbench", 1, 0.0, w.specs, reference);
  const std::vector<std::string> want = PointBlocks(published.str());
  const std::vector<std::string> got = PointBlocks(ours.str());
  Expect(got.size() == w.specs.size() && want.size() >= got.size(),
         "BENCH_sweeps.json: point counts");
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    Expect(got[i] == want[i], "BENCH_sweeps.json differs at " + w.specs[i].name);
  }
}

void TestMetroThreadInvariance() {
  osumac::obs::Profiler profiler;
  const PassOutput serial = RunPass("metro", kDefaultSeed, 1, &profiler);
  Expect(!profiler.empty(), "metro: serial traced pass recorded no zones");
  // Harness fidelity for metro: the outside-driven loop gives the library's
  // own network run, counters and SLO rollup included.
  exp::NetworkScenarioRun reference(Make("metro", kDefaultSeed).network);
  const std::string want =
      exp::ResultSignature(reference.Execute()) + "|sign_offs=" +
      std::to_string(reference.network().counters().sign_offs);
  Expect(serial.signatures == std::vector<std::string>{want},
         "metro: differs from exp::NetworkScenarioRun");
  for (const int threads : {2, 4}) {
    const PassOutput parallel = RunPass("metro", kDefaultSeed, threads, nullptr);
    Expect(parallel.signatures == serial.signatures,
           "metro: threads=" + std::to_string(threads) + " differs from serial");
    Expect(parallel.tally.backbone_messages == serial.tally.backbone_messages &&
               parallel.tally.handoffs == serial.tally.handoffs,
           "metro: network counters differ");
  }
  Expect(serial.tally.backbone_messages > 0 && serial.tally.handoffs > 0,
         "metro: chatter and mobility reach the backbone");
  Expect(serial.checks == std::vector<std::string>{""}, "metro: output checks");
}

/// The stretches of `pass` are non-negative and add up to its set-up and
/// wall time (up to the loop overhead between them).
void ExpectStretchesCover(const PassOutput& pass, const std::string& label) {
  const PassTime& t = pass.time;
  double setup = 0.0;
  double wall = 0.0;
  bool non_negative = true;
  for (const double s : t.setup_parts_s) {
    setup += s;
    non_negative = non_negative && s >= 0.0;
  }
  wall = setup;
  for (const double s : t.other_parts_s) {
    wall += s;
    non_negative = non_negative && s >= 0.0;
  }
  for (const std::vector<double>& point : t.cycle_s) {
    for (const double s : point) {
      wall += s;
      non_negative = non_negative && s >= 0.0;
    }
  }
  Expect(non_negative, label + ": negative stretch");
  Expect(std::abs(setup - t.setup_s) <= 1e-6 * t.setup_s + 1e-6,
         label + ": set-up stretches add up to setup_s");
  Expect(wall <= t.wall_s && wall >= 0.98 * t.wall_s,
         label + ": stretches cover wall_s");
}

void TestStretches() {
  const std::vector<PassOutput> passes = {RunPass("policy_matrix", kDefaultSeed, 1, nullptr),
                                          RunPass("policy_matrix", kDefaultSeed, 1, nullptr)};
  for (const PassOutput& pass : passes) ExpectStretchesCover(pass, "policy_matrix");
  ExpectStretchesCover(RunPass("lossy_cell", kDefaultSeed, 1, nullptr), "lossy_cell");
  ExpectStretchesCover(RunPass("metro", kDefaultSeed, 2, nullptr), "metro");
  const MetricMap m = EndToEndMetrics(passes, 1.0);
  const double fastest = std::min(passes[0].time.wall_s, passes[1].time.wall_s);
  const double slowest = std::max(passes[0].time.wall_s, passes[1].time.wall_s);
  Expect(m.at("wall_s").value >= 0.98 * fastest && m.at("wall_s").value <= slowest,
         "median stretches: wall_s between the fastest and the slowest pass");
  Expect(m.at("setup_s").value > 0.0 && m.at("setup_s").value < m.at("wall_s").value &&
             m.at("cycle_ms_p50").value <= m.at("cycle_ms_p99").value,
         "median stretches: metrics ordered");
}

void TestChecks() {
  exp::RunResult good;
  good.figure.utilization = 0.5;
  good.figure.gps_access_delay_max_s = 3.9;
  good.figure.gps_reports_per_bus_per_cycle = 1.0;
  Expect(CheckResult(good, true, true).empty(), "checks: a good result passes");

  exp::RunResult r = good;
  r.figure.utilization = 1.2;
  Expect(!CheckResult(r, true, true).empty(), "checks: utilization above 1");
  r = good;
  r.figure.mean_packet_delay_cycles = std::numeric_limits<double>::quiet_NaN();
  Expect(!CheckResult(r, false, false).empty(), "checks: non-finite metric");
  r = good;
  r.figure.gps_access_delay_max_s = 4.2;
  Expect(!CheckResult(r, true, false).empty(), "checks: GPS bound on OSU");
  Expect(CheckResult(r, false, false).empty(), "checks: GPS bound is OSU-only");
  r = good;
  r.figure.gps_reports_per_bus_per_cycle = 0.99;
  Expect(!CheckResult(r, true, true).empty(), "checks: one report per bus");
  Expect(CheckResult(r, true, false).empty(), "checks: reports only on perfect channels");
}

void TestHonestAbsence() {
  const PassOutput pass = RunPass("policy_matrix", kDefaultSeed, 1, nullptr);
  const std::vector<PassOutput> passes = {pass};
  osumac::obs::Profiler empty;
  std::string absent;
  const MetricMap off = PerLayerMetrics(passes, passes, empty, false, &absent);
  Expect(!absent.empty(), "absence: a message explains missing zone metrics");
  Expect(off.count("cell.cf.self_ns_per_cycle") == 0 &&
             off.count("policy.slot.calls_per_cycle") == 0,
         "absence: zone metrics are left out, not zeroed");
  Expect(off.count("obs.trace_overhead") == 1 && off.count("sim.events_per_cycle") == 1,
         "absence: non-zone metrics stay");
  absent.clear();
  const MetricMap on = PerLayerMetrics(passes, passes, empty, true, &absent);
  Expect(absent.empty() && on.count("policy.slot.calls_per_cycle") == 1,
         "absence: zone metrics reported when compiled");
}

void TestSeeds() {
  for (const std::string& name : WorkloadNames()) {
    const Workload w = Make(name, 7);
    for (const exp::ScenarioSpec& spec : w.specs) {
      Expect(spec.seed == 7, name + ": spec seed follows the benchmark seed");
    }
    if (w.is_network) Expect(w.network.seed == 7, name + ": network seed");
  }
  const PassOutput a = RunPass("policy_matrix", 1, 1, nullptr);
  const PassOutput b = RunPass("policy_matrix", 2, 1, nullptr);
  Expect(ResultsDigest(a.signatures) != ResultsDigest(b.signatures),
         "seeds: different seeds give different results");
}

}  // namespace

int main() {
  for (const char* name : {"paper_sweep", "lossy_cell", "policy_matrix"}) {
    TestFidelity(name);
  }
  TestMetroThreadInvariance();
  TestStretches();
  TestChecks();
  TestHonestAbsence();
  TestSeeds();
  std::printf("perfbench selftest: %s (%d failures)\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
