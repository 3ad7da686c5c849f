// The four benchmark workloads and the output checks every run must pass.
#include <cmath>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

using osumac::mac::ChannelModelConfig;

/// make_figures' Section-5 spec list: the load sweep with and without CF2
/// (figs 8-12a), the fig 12(b) GPS arms and the robustness grid.  The
/// order and names match the points BENCH_sweeps.json records.
std::vector<exp::ScenarioSpec> PaperSweep() {
  std::vector<exp::ScenarioSpec> specs;
  for (const double rho : exp::LoadSweep()) {
    exp::ScenarioSpec point = exp::LoadPoint(rho);
    specs.push_back(point);
    exp::ScenarioSpec no_cf2 = point;
    no_cf2.name += "_nocf2";
    no_cf2.mac.use_second_control_field = false;
    specs.push_back(no_cf2);
  }
  for (const double rho : exp::LoadSweep()) {
    for (const int gps : {1, 4}) {
      for (const bool dynamic : {true, false}) {
        exp::ScenarioSpec point = exp::LoadPoint(rho);
        point.name += "_gps" + std::to_string(gps) + (dynamic ? "_dyn" : "_static");
        point.gps_users = gps;
        point.mac.dynamic_gps_slots = dynamic;
        specs.push_back(point);
      }
    }
  }
  for (const int data_users : {5, 8, 11, 14}) {
    for (const int gps_users : {1, 3, 4, 8}) {
      exp::ScenarioSpec point = exp::LoadPoint(0.7);
      point.name = "grid_d" + std::to_string(data_users) + "_g" +
                   std::to_string(gps_users);
      point.data_users = data_users;
      point.gps_users = gps_users;
      point.measure_cycles = 500;
      specs.push_back(point);
    }
  }
  return specs;
}

/// Single-cell OSU under real channel errors: rho {0.5, 0.9} x {Gilbert-
/// Elliott with default parameters on both links, the uniform channel of
/// scenarios/load_sweep.scn's rho_0.8_noisy point}, each with a 0.4
/// downlink and forward ARQ.
std::vector<exp::ScenarioSpec> LossyCell() {
  std::vector<exp::ScenarioSpec> specs;
  for (const double rho : {0.5, 0.9}) {
    for (const bool ge : {true, false}) {
      exp::ScenarioSpec point = exp::LoadPoint(rho);
      point.name += ge ? "_ge" : "_noisy";
      if (ge) {
        point.forward.kind = ChannelModelConfig::Kind::kGilbertElliott;
        point.reverse.kind = ChannelModelConfig::Kind::kGilbertElliott;
      } else {
        point.reverse.kind = ChannelModelConfig::Kind::kUniform;
        point.reverse.symbol_error_prob = 0.01;
        point.forward.kind = ChannelModelConfig::Kind::kUniform;
        point.forward.symbol_error_prob = 0.005;
      }
      point.workload.downlink_rho = 0.4;
      point.mac.downlink_arq = true;
      specs.push_back(point);
    }
  }
  return specs;
}

/// make_figures --mac-matrix's load sweep, restricted to the out-of-band
/// tenants, which run on mac::PolicyCell.
std::vector<exp::ScenarioSpec> PolicyMatrix() {
  std::vector<exp::ScenarioSpec> specs;
  for (const std::string policy : {"rqma", "pca"}) {
    for (const double rho : exp::LoadSweep()) {
      exp::ScenarioSpec point = exp::LoadPoint(rho);
      point.name = "mac_" + policy + "_" + point.name;
      point.mac_policy = policy;
      specs.push_back(point);
    }
  }
  return specs;
}

/// make_figures' bench_metro network (64 cells of 4 data users and 1 bus
/// each, the default mobility of p = 0.05 every 3 cycles) with heavier
/// chatter and a longer measured window.  At the default 2 messages per step
/// the backbone carries 0.64 messages per lockstep cycle and the cells'
/// data slots sit idle (0.5% used); 96 messages per step carry 29, fill 23%
/// of the data slots and raise net.barrier (the serial backbone drain) from
/// 2 to 48 us per cycle (perfbench/README.md).  1000 measured
/// cycles give every pass its own p99 from ten samples beyond it.
exp::NetworkScenarioSpec Metro(int threads) {
  exp::NetworkScenarioSpec spec;
  spec.name = "metro";
  spec.cells = 64;
  spec.data_users_per_cell = 4;
  spec.gps_users_per_cell = 1;
  spec.measure_cycles = 1000;
  spec.messages_per_step = 96;
  spec.threads = threads;
  return spec;
}

/// The paper's bound on a bus's GPS access delay: one report per 4 s cycle.
constexpr double kGpsAccessBoundS = 4.0;

bool Finite(double v) { return std::isfinite(v); }

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"paper_sweep", "lossy_cell",
                                                  "metro", "policy_matrix"};
  return kNames;
}

bool MakeWorkload(const std::string& name, std::uint64_t seed, int threads,
                  Workload* out) {
  Workload w;
  if (name == "paper_sweep") {
    w.specs = PaperSweep();
  } else if (name == "lossy_cell") {
    w.specs = LossyCell();
  } else if (name == "policy_matrix") {
    w.specs = PolicyMatrix();
  } else if (name == "metro") {
    w.is_network = true;
    w.network = Metro(threads);
    w.network.seed = seed;
  } else {
    return false;
  }
  for (exp::ScenarioSpec& spec : w.specs) spec.seed = seed;
  *out = std::move(w);
  return true;
}

bool PerfectChannel(const exp::ScenarioSpec& spec) {
  return spec.forward.kind == ChannelModelConfig::Kind::kPerfect &&
         spec.reverse.kind == ChannelModelConfig::Kind::kPerfect;
}

std::string CheckResult(const exp::RunResult& result, bool osu_tenant,
                        bool one_report_per_bus) {
  const osumac::metrics::FigureMetrics& f = result.figure;
  for (const double v :
       {f.utilization, f.mean_packet_delay_cycles, f.p95_packet_delay_cycles,
        f.mean_message_delay_cycles, f.collision_probability,
        f.mean_reservation_latency, f.control_overhead, f.fairness_index,
        f.second_cf_gain, f.avg_data_slots_used, f.message_drop_rate,
        f.gps_access_delay_max_s, f.gps_reports_per_bus_per_cycle,
        result.offered_load, result.downlink_mean_delay_cycles}) {
    if (!Finite(v)) return "non-finite figure metric";
  }
  for (const osumac::obs::SloClassSummary& s : result.slo) {
    for (const double v : {s.p50, s.p90, s.p99, s.max_seconds}) {
      if (!Finite(v)) return "non-finite SLO value in " + s.name;
    }
  }
  if (f.utilization < 0.0 || f.utilization > 1.0) {
    return "utilization " + std::to_string(f.utilization) + " outside [0, 1]";
  }
  // The exact maximum: the summary's max_seconds for network rollups (whose
  // figure block is empty), the figure column otherwise.
  const double gps_max =
      result.network.cells > 0
          ? result.slo[static_cast<std::size_t>(osumac::obs::SloClass::kGpsAccess)]
                .max_seconds
          : f.gps_access_delay_max_s;
  if (osu_tenant && gps_max > kGpsAccessBoundS) {
    return "GPS access delay " + std::to_string(gps_max) + " s exceeds 4 s";
  }
  if (one_report_per_bus && f.gps_reports_per_bus_per_cycle != 1.0) {
    return "GPS reports per bus per cycle " +
           std::to_string(f.gps_reports_per_bus_per_cycle) + " != 1";
  }
  return "";
}

}  // namespace perfbench
