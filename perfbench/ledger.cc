// The metric ledger: end-to-end metrics from untraced passes, per-layer
// metrics from the zone tree of traced passes.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

namespace obs = osumac::obs;

double Div(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Samples(std::size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

/// Self nanoseconds and entry counts per zone name, summed over every
/// position the name takes in the tree.
struct ZoneTotals {
  std::int64_t calls = 0;
  std::int64_t self_ns = 0;
};

void SumZones(const obs::ZoneNode& node, std::map<std::string, ZoneTotals>* out) {
  for (const auto& [name, child] : node.children) {
    ZoneTotals& z = (*out)[name];
    z.calls += child->count;
    z.self_ns += child->self_ns();
    SumZones(*child, out);
  }
}

/// Median of `values` (0 when empty).
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The q-quantile (0..1) of `values` by nearest rank (0 when empty).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

template <typename Fn>
double Total(const std::vector<PassOutput>& passes, Fn&& field) {
  double sum = 0.0;
  for (const PassOutput& p : passes) sum += static_cast<double>(field(p));
  return sum;
}

template <typename Fn>
double MedianOf(const std::vector<PassOutput>& passes, Fn&& field) {
  std::vector<double> values;
  for (const PassOutput& p : passes) values.push_back(field(p));
  return Median(std::move(values));
}

/// Host seconds the measured windows spent inside cells (metro: minus the
/// benchmark's mobility and chatter calls between lockstep cycles).
double CellSeconds(const PassOutput& p) {
  return p.time.measure_s - p.time.walk_s - p.time.send_s;
}

}  // namespace

MetricMap EndToEndMetrics(const std::vector<PassOutput>& passes,
                          double peak_rss_mb) {
  // Every pass repeats the same simulated work, so each timed stretch and
  // measured cycle is timed once per pass and counts at its median over the
  // passes.  A burst of load from another tenant of the host then moves only
  // the stretches it hit, in fewer than half of the passes; unlike the
  // median of whole passes, no pass has to escape every burst.  The passes'
  // digests must agree; a pass cut differently does not count.
  const PassTime& shape = passes.front().time;
  auto median = [&](auto&& field) {
    const std::size_t n = field(shape).size();
    std::vector<double> out(n);
    std::vector<double> column;
    for (std::size_t i = 0; i < n; ++i) {
      column.clear();
      for (const PassOutput& p : passes) {
        const std::vector<double>& v = field(p.time);
        if (v.size() == n) column.push_back(v[i]);
      }
      out[i] = Median(column);
    }
    return out;
  };
  auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  const std::vector<double> setup =
      median([](const PassTime& t) -> const std::vector<double>& { return t.setup_parts_s; });
  const std::vector<double> other =
      median([](const PassTime& t) -> const std::vector<double>& { return t.other_parts_s; });
  std::vector<std::vector<double>> cycles;
  double measure_s = 0.0;
  std::size_t samples = 0;
  for (std::size_t i = 0; i < shape.cycle_s.size(); ++i) {
    cycles.push_back(median(
        [i](const PassTime& t) -> const std::vector<double>& { return t.cycle_s[i]; }));
    measure_s += sum(cycles.back());
    samples += cycles.back().size();
  }
  // A cycle quantile is taken over one point's measured cycles, then the
  // mean over the points, so every point weighs the same.
  auto cycle_ms = [&](double q) {
    double total = 0.0;
    for (const std::vector<double>& point : cycles) total += Quantile(point, q);
    return 1e3 * Div(total, static_cast<double>(cycles.size()));
  };
  const std::string of_passes = " of " + Samples(passes.size(), "passes");
  const std::string stretches =
      "median" + of_passes + " per stretch, " +
      Samples(setup.size() + other.size() + samples, "stretches and cycles");
  const std::string per_cycle = "mean over " + Samples(cycles.size(), "points") + " of " +
                                Samples(samples, "cycles") + ", each the median" + of_passes;
  MetricMap m;
  m["setup_s"] = {sum(setup), "s",
                  "median" + of_passes + " per stretch, " + Samples(setup.size(), "stretches")};
  m["wall_s"] = {sum(setup) + sum(other) + measure_s, "s", stretches};
  m["cell_cycles_per_s"] = {
      Div(static_cast<double>(passes.front().tally.cell_cycles), measure_s), "1/s",
      Samples(samples, "measured cycles") + ", each the median" + of_passes};
  m["cycle_ms_p50"] = {cycle_ms(0.50), "ms", per_cycle};
  m["cycle_ms_p99"] = {cycle_ms(0.99), "ms", per_cycle};
  m["peak_rss_mb"] = {peak_rss_mb, "MB", "VmHWM, after the first pass"};
  return m;
}

MetricMap PerLayerMetrics(const std::vector<PassOutput>& untraced,
                          const std::vector<PassOutput>& traced,
                          const obs::Profiler& tree, bool zones_compiled,
                          std::string* absent) {
  MetricMap m;
  const std::string per_pass = "median of " + Samples(untraced.size(), "untraced passes");
  // Simulated totals repeat exactly in every pass; read them once.
  const Tally& k = untraced.front().tally;
  const double cell_cycles = static_cast<double>(k.cell_cycles);
  const double lockstep = static_cast<double>(k.lockstep_cycles);

  // --- exp: phase seconds per pass, untraced -------------------------------
  m["exp.populate_s"] = {MedianOf(untraced, [](const PassOutput& p) { return p.time.populate_s; }), "s", per_pass};
  m["exp.warmup_s"] = {MedianOf(untraced, [](const PassOutput& p) { return p.time.warmup_s; }), "s", per_pass};
  m["exp.measure_s"] = {MedianOf(untraced, [](const PassOutput& p) { return p.time.measure_s; }), "s", per_pass};
  m["exp.finish_s"] = {MedianOf(untraced, [](const PassOutput& p) { return p.time.finish_s; }), "s", per_pass};

  // --- sim -------------------------------------------------------------------
  m["sim.events_per_cycle"] = {Div(static_cast<double>(k.events), cell_cycles), "1/cycle", "per cell-cycle"};
  m["sim.ns_per_event"] = {
      Div(1e9 * Total(untraced, CellSeconds),
          Total(untraced, [](const PassOutput& p) { return p.tally.events; })),
      "ns", "untraced measured windows"};

  // --- mac ratios, traffic and network counts (simulated) --------------------
  m["mac.collision_ratio"] = {Div(static_cast<double>(k.collisions), static_cast<double>(k.contention_slots)), "ratio", "collisions per contention slot"};
  m["mac.data_slot_use_ratio"] = {Div(static_cast<double>(k.data_slots_used), static_cast<double>(k.data_slots_offered)), "ratio", "used per offered data slot"};
  m["mac.arq_retx_per_cycle"] = {Div(static_cast<double>(k.arq_retransmissions), cell_cycles), "1/cycle", "per cell-cycle"};
  m["traffic.uplink_msgs_per_cycle"] = {Div(static_cast<double>(k.uplink_messages), cell_cycles), "1/cycle", "per cell-cycle"};
  m["traffic.downlink_msgs_per_cycle"] = {Div(static_cast<double>(k.downlink_messages), cell_cycles), "1/cycle", "per cell-cycle"};
  m["net.handoffs_per_cycle"] = {Div(static_cast<double>(k.handoffs), lockstep), "1/cycle", "per lockstep cycle"};
  m["net.backbone_msgs_per_cycle"] = {Div(static_cast<double>(k.backbone_messages), lockstep), "1/cycle", "per lockstep cycle"};
  m["net.walk.ms_per_step"] = {
      Div(1e3 * Total(untraced, [](const PassOutput& p) { return p.time.walk_s; }),
          Total(untraced, [](const PassOutput& p) { return p.tally.walk_steps; })),
      "ms", "untraced RandomWalk calls"};
  m["net.send.us_per_call"] = {
      Div(1e6 * Total(untraced, [](const PassOutput& p) { return p.time.send_s; }),
          Total(untraced, [](const PassOutput& p) { return p.tally.sends; })),
      "us", "untraced SendMessage calls"};

  // --- obs ---------------------------------------------------------------------
  m["obs.trace_overhead"] = {
      Div(MedianOf(traced, [](const PassOutput& p) { return p.time.wall_s; }),
          MedianOf(untraced, [](const PassOutput& p) { return p.time.wall_s; })),
      "ratio", "traced / untraced median wall, " + Samples(traced.size(), "pairs")};

  if (!zones_compiled) {
    *absent =
        "zone metrics absent: profiling zones are compiled out "
        "(OSUMAC_PROFILER=OFF); cell.*, fec.*, phy.*, policy.*, net.cell, "
        "net.barrier and net.route are not reported";
    return m;
  }

  // --- zones: self time and calls per cell-cycle of the traced windows ------
  std::map<std::string, ZoneTotals> zones;
  SumZones(tree.root(), &zones);
  const double traced_cycles =
      Total(traced, [](const PassOutput& p) { return p.tally.cell_cycles; });
  const double traced_lockstep =
      Total(traced, [](const PassOutput& p) { return p.tally.lockstep_cycles; });
  const std::string per_cell_cycle = "traced, per cell-cycle";
  auto self = [&](const std::string& name, const std::string& metric) {
    m[metric] = {Div(static_cast<double>(zones[name].self_ns), traced_cycles),
                 "ns/cycle", per_cell_cycle};
  };
  auto calls = [&](const std::string& name, const std::string& metric) {
    m[metric] = {Div(static_cast<double>(zones[name].calls), traced_cycles),
                 "1/cycle", per_cell_cycle};
  };
  for (const char* zone : {"cell.cf", "cell.plan", "cell.slot.data", "cell.slot.gps",
                           "cell.slot.forward", "cell.drain", "fec.encode",
                           "fec.decode", "phy.channel", "policy.plan",
                           "policy.slot", "net.cell"}) {
    self(zone, std::string(zone) + ".self_ns_per_cycle");
  }
  for (const char* zone : {"cell.cf", "fec.encode", "fec.decode", "phy.channel",
                           "policy.slot"}) {
    calls(zone, std::string(zone) + ".calls_per_cycle");
  }
  m["fec.decode.fail_ratio"] = {
      Div(Total(traced, [](const PassOutput& p) { return p.tally.failed_receptions; }),
          static_cast<double>(zones["fec.decode"].calls)),
      "ratio", "MAC-counted failed receptions per RS decode"};
  m["net.barrier.ns_per_cycle"] = {
      Div(static_cast<double>(zones["net.barrier"].self_ns), traced_lockstep),
      "ns/cycle", "traced, per lockstep cycle"};
  m["net.route.calls_per_cycle"] = {
      Div(static_cast<double>(zones["net.route"].calls), traced_lockstep),
      "1/cycle", "traced, per lockstep cycle"};

  // Time in the measured windows that no layer zone claims: the event
  // engine and subscriber logic.  net.cell only wraps a cell's cycle, so its
  // self time is exactly that and counts here too.
  double layer_ns = 0.0;
  for (const auto& [name, z] : zones) {
    if (name != "net.cell") layer_ns += static_cast<double>(z.self_ns);
  }
  m["cell.unzoned_ns_per_cycle"] = {
      Div(1e9 * Total(traced, CellSeconds) - layer_ns, traced_cycles), "ns/cycle",
      per_cell_cycle};
  return m;
}

}  // namespace perfbench
