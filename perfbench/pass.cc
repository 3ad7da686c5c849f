// One pass of a workload: the timed, probed and optionally traced run of
// its whole spec list, with every output checked.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "exp/emit.h"
#include "exp/seed.h"
#include "mac/cell.h"
#include "mac/cell_observer.h"
#include "mac/policy_cell.h"
#include "obs/wallclock.h"

namespace perfbench {

namespace {

namespace mac = osumac::mac;
namespace obs = osumac::obs;
using osumac::Interval;
using osumac::Tick;

/// The per-cycle probe: stamps host time at every cycle-start hook, and at
/// the first measured cycle records the simulator's event count and
/// installs the pass's profiler (if any) for the measured window.  The
/// zone that is open while the hook runs was entered with no profiler
/// installed and stays unrecorded; every later zone reports.
class CycleProbe final : public mac::CellObserver, public mac::PolicyCellObserver {
 public:
  CycleProbe(const obs::Stopwatch& clock, std::int64_t first_measured,
             std::int64_t total_cycles, obs::Profiler* profiler)
      : clock_(clock),
        first_measured_(first_measured),
        profiler_(profiler),
        stamps_(static_cast<std::size_t>(total_cycles), 0.0) {}

  void OnCyclePlanned(const mac::Cell& cell, const mac::ControlFields&,
                      std::int64_t cycle, Tick) override {
    Stamp(cycle, cell.simulator().events_executed());
  }
  void OnControlFieldsDelivered(const mac::Cell&, const mac::ControlFields&,
                                bool, Tick, Tick) override {}
  void OnCyclePlanned(const mac::PolicyCell& cell, const mac::PolicyCyclePlan&,
                      std::int64_t cycle, Tick) override {
    Stamp(cycle, cell.simulator().events_executed());
  }
  void OnSlotResolved(const mac::PolicyCell&, const mac::PolicySlotPlan&,
                      const mac::PolicySlotResult&, Interval, Tick) override {}

  /// Closes the measured window: uninstalls the profiler and returns the
  /// host time.  Call between cycles, after the last measured one.
  double EndMeasure() {
    scope_.reset();
    return clock_.Seconds();
  }

  double stamp(std::int64_t cycle) const {
    return stamps_[static_cast<std::size_t>(cycle)];
  }
  std::int64_t events_at_measure_start() const { return events_at_first_; }

 private:
  void Stamp(std::int64_t cycle, std::uint64_t events) {
    stamps_[static_cast<std::size_t>(cycle)] = clock_.Seconds();
    if (cycle != first_measured_) return;
    events_at_first_ = static_cast<std::int64_t>(events);
    if (profiler_ != nullptr) scope_.emplace(profiler_);
  }

  const obs::Stopwatch& clock_;
  const std::int64_t first_measured_;
  obs::Profiler* const profiler_;
  std::vector<double> stamps_;
  std::int64_t events_at_first_ = 0;
  std::optional<obs::Profiler::ThreadScope> scope_;
};

/// What one single-cell point adds to its pass, besides the result.
struct PointTimes {
  double built = 0.0;     ///< cell constructed (and, for policies, populated)
  double measured = 0.0;  ///< last measured cycle done
  std::int64_t events_end = 0;
  std::int64_t cf_missed = 0;
};

void AddBs(const mac::BsCounters& bs, Tally* t) {
  t->collisions += bs.collisions;
  t->contention_slots += bs.contention_slot_cycles;
  t->data_slots_used += bs.data_slots_used;
  t->data_slots_offered += bs.data_slots_offered;
  t->arq_retransmissions += bs.forward_retransmissions;
  t->failed_receptions += bs.decode_failures + bs.gps_packets_failed;
}

std::int64_t CfMissed(const mac::Cell& cell) {
  std::int64_t missed = 0;
  for (int i = 0; i < cell.subscriber_count(); ++i) {
    missed += cell.subscriber(i).stats().cf_missed;
  }
  return missed;
}

/// The OSU tenant through exp::ScenarioRun's public phases.
exp::RunResult RunOsuPoint(const exp::ScenarioSpec& spec, const obs::Stopwatch& clock,
                           CycleProbe& probe, PointTimes* times) {
  exp::ScenarioRun run(spec);
  times->built = clock.Seconds();
  run.cell().AddObserver(&probe);
  run.BuildPopulation();
  run.StartWorkloads();
  run.Warmup();
  run.Measure();
  times->measured = probe.EndMeasure();
  times->events_end = static_cast<std::int64_t>(run.cell().simulator().events_executed());
  times->cf_missed = CfMissed(run.cell());
  run.cell().RemoveObserver(&probe);
  return run.Finish();
}

/// A policy tenant through exp::RunScenario and its PolicyCell hooks.
exp::RunResult RunPolicyPoint(const exp::ScenarioSpec& spec,
                              const obs::Stopwatch& clock, CycleProbe& probe,
                              PointTimes* times) {
  exp::RunHooks hooks;
  hooks.policy_after_build = [&](mac::PolicyCell& cell) {
    times->built = clock.Seconds();
    cell.AddObserver(&probe);
  };
  hooks.policy_before_finish = [&](mac::PolicyCell& cell) {
    times->measured = probe.EndMeasure();
    times->events_end = static_cast<std::int64_t>(cell.simulator().events_executed());
    cell.RemoveObserver(&probe);
  };
  return exp::RunScenario(spec, hooks);
}

void RunCellPass(const Workload& w, obs::Profiler* profiler, PassOutput* out) {
  for (const exp::ScenarioSpec& spec : w.specs) {
    const obs::Stopwatch clock;
    const std::int64_t reg = spec.registration_cycles;
    const std::int64_t first = reg + spec.warmup_cycles;
    const std::int64_t total = first + spec.measure_cycles;
    CycleProbe probe(clock, first, total, profiler);
    PointTimes times;
    const bool osu = spec.mac_policy == "osu";
    exp::RunResult result = osu ? RunOsuPoint(spec, clock, probe, &times)
                                : RunPolicyPoint(spec, clock, probe, &times);

    out->checks.push_back(
        CheckResult(result, osu, PerfectChannel(spec) && spec.gps_users > 0));
    out->signatures.push_back(exp::ResultSignature(result));

    PassTime& t = out->time;
    t.setup_s += probe.stamp(reg);
    t.populate_s += probe.stamp(reg) - times.built;
    t.warmup_s += probe.stamp(first) - probe.stamp(reg);
    t.measure_s += times.measured - probe.stamp(first);
    t.setup_parts_s.push_back(probe.stamp(0));
    std::vector<double>& cycle_s = t.cycle_s.emplace_back();
    for (std::int64_t c = 0; c < total; ++c) {
      const double end = c + 1 < total ? probe.stamp(c + 1) : times.measured;
      const double cycle = end - probe.stamp(c);
      if (c < reg) {
        t.setup_parts_s.push_back(cycle);
      } else if (c < first) {
        t.other_parts_s.push_back(cycle);
      } else {
        cycle_s.push_back(cycle);
      }
    }

    Tally& k = out->tally;
    k.cell_cycles += result.measured_cycles;
    k.events += times.events_end - probe.events_at_measure_start();
    AddBs(result.bs, &k);
    k.failed_receptions += times.cf_missed + result.forward_packets_lost;
    k.uplink_messages += result.uplink_messages_offered;
    k.downlink_messages += result.downlink_messages_generated;
    t.other_parts_s.push_back(clock.Seconds() - times.measured);
    t.finish_s += t.other_parts_s.back();
  }
}

/// The metro network through exp::NetworkScenarioRun's public phases.  The
/// measured phase is driven here, cycle by cycle, so that every RandomWalk,
/// SendMessage and lockstep cycle is timed from outside; it draws from the
/// kNetwork stream in the same order as NetworkScenarioRun::Measure, so the
/// result is the library's own (one RunCycles(1) per cycle equals
/// RunCycles(step) in lockstep).
void RunNetworkPass(const exp::NetworkScenarioSpec& spec, obs::Profiler* profiler,
                    PassOutput* out) {
  PassTime& t = out->time;
  Tally& k = out->tally;
  const obs::Stopwatch clock;
  exp::NetworkScenarioRun run(spec);
  mac::Network& net = run.network();
  const double built = clock.Seconds();
  run.BuildPopulation();
  const double registered = clock.Seconds();
  t.setup_s += registered;
  t.populate_s += registered - built;
  t.setup_parts_s.push_back(built);
  t.setup_parts_s.push_back(registered - built);
  run.Warmup();
  const double warm = clock.Seconds();
  t.warmup_s += warm - registered;
  t.other_parts_s.push_back(warm - registered);

  auto total_events = [&net] {
    std::int64_t events = 0;
    for (int c = 0; c < net.cell_count(); ++c) {
      events += static_cast<std::int64_t>(net.cell(c).simulator().events_executed());
    }
    return events;
  };
  const std::int64_t events0 = total_events();
  const mac::NetworkCounters before = net.counters();
  osumac::Rng rng(exp::DeriveSeed(spec.seed, exp::SeedStream::kNetwork));
  const int subscribers = net.subscriber_count();
  std::int64_t accepted = 0;
  std::vector<double>& cycle_s = t.cycle_s.emplace_back();
  {
    std::optional<obs::Profiler::ThreadScope> scope;
    if (profiler != nullptr) scope.emplace(profiler);
    for (int cycle = 0; cycle < spec.measure_cycles; ++cycle) {
      if (cycle % spec.walk_period_cycles == 0) {
        const obs::Stopwatch step;
        if (spec.handoff_prob > 0.0) {
          const obs::Stopwatch walk;
          net.RandomWalk(spec.handoff_prob, rng);
          t.walk_s += walk.Seconds();
          ++k.walk_steps;
        }
        for (int m = 0; m < spec.messages_per_step && subscribers > 1; ++m) {
          const int a = static_cast<int>(rng.UniformInt(0, subscribers - 1));
          const int b = static_cast<int>(rng.UniformInt(0, subscribers - 1));
          if (a == b ||
              net.subscriber(a).state() != mac::MobileSubscriber::State::kActive) {
            continue;
          }
          const int bytes = static_cast<int>(
              rng.UniformInt(spec.message_bytes_lo, spec.message_bytes_hi));
          const obs::Stopwatch send;
          const bool ok = net.SendMessage(a, b, bytes);
          t.send_s += send.Seconds();
          ++k.sends;
          if (ok) ++accepted;
        }
        t.other_parts_s.push_back(step.Seconds());
      }
      const obs::Stopwatch lockstep;
      net.RunCycles(1);
      cycle_s.push_back(lockstep.Seconds());
    }
  }
  const double measured = clock.Seconds();
  t.measure_s += measured - warm;

  exp::RunResult result = run.Finish();
  // Finish counts only the sends its own Measure made.
  result.uplink_messages_offered = accepted;
  out->checks.push_back(
      CheckResult(result, /*osu_tenant=*/true, /*one_report_per_bus=*/false));
  out->signatures.push_back(exp::ResultSignature(result) + "|sign_offs=" +
                            std::to_string(net.counters().sign_offs));

  k.cell_cycles += static_cast<std::int64_t>(spec.cells) * spec.measure_cycles;
  k.lockstep_cycles += spec.measure_cycles;
  k.events += total_events() - events0;
  for (int c = 0; c < net.cell_count(); ++c) {
    const mac::Cell& cell = net.cell(c);
    AddBs(cell.base_station().counters(), &k);
    k.failed_receptions += CfMissed(cell) + cell.metrics().forward_packets_lost;
  }
  k.uplink_messages += accepted;
  k.handoffs += net.counters().handoffs - before.handoffs;
  k.backbone_messages += net.counters().backbone_messages - before.backbone_messages;
  t.other_parts_s.push_back(clock.Seconds() - measured);
  t.finish_s += t.other_parts_s.back();
}

}  // namespace

PassOutput RunPass(const std::string& workload, std::uint64_t seed, int threads,
                   obs::Profiler* profiler) {
  // Pool workers have no profiler, so a traced pass runs serially.
  if (profiler != nullptr) threads = 1;
  PassOutput out;
  const obs::Stopwatch clock;
  Workload w;
  if (!MakeWorkload(workload, seed, threads, &w)) return out;
  out.time.setup_s = clock.Seconds();  // the spec build
  out.time.setup_parts_s.push_back(out.time.setup_s);
  if (w.is_network) {
    RunNetworkPass(w.network, profiler, &out);
  } else {
    RunCellPass(w, profiler, &out);
  }
  out.time.wall_s = clock.Seconds();
  return out;
}

std::uint64_t ResultsDigest(const std::vector<std::string>& signatures) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& sig : signatures) {
    for (const char c : sig) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // point separator
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
