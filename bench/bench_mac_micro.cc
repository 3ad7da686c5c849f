// Microbenchmarks of the MAC's hot paths (google-benchmark): scheduler
// allocation, forward-schedule construction, control-field serialization,
// GPS slot management, full base-station cycle planning and a whole
// simulated notification cycle.
#include <benchmark/benchmark.h>

#include "bench_provenance.h"
#include "osumac/osumac.h"

using namespace osumac;
using namespace osumac::mac;

namespace {

void BM_RoundRobinAllocate(benchmark::State& state) {
  RoundRobinScheduler rr;
  std::map<UserId, int> demand;
  for (UserId u = 0; u < static_cast<UserId>(state.range(0)); ++u) demand[u] = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rr.Allocate(demand, 8));
  }
}
BENCHMARK(BM_RoundRobinAllocate)->Arg(4)->Arg(16)->Arg(60);

void BM_BuildForwardSchedule(benchmark::State& state) {
  ForwardScheduleInput in;
  in.format = ReverseFormat::kFormat1;
  for (UserId u = 0; u < 20; ++u) {
    in.demand[u] = 3;
    in.slot0_eligible.insert(u);
  }
  for (int i = 0; i < 8; ++i) in.gps_schedule[static_cast<std::size_t>(i)] = static_cast<UserId>(30 + i);
  for (int i = 1; i < 8; ++i) in.reverse_schedule[static_cast<std::size_t>(i)] = static_cast<UserId>(i);
  in.cf2_listener = 7;
  in.cf2_listener_tx_tail_end = 11850;
  RoundRobinScheduler rr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildForwardSchedule(in, rr));
  }
}
BENCHMARK(BM_BuildForwardSchedule);

void BM_ControlFieldSerialize(benchmark::State& state) {
  ControlFields cf;
  for (int i = 0; i < 8; ++i) cf.gps_schedule[static_cast<std::size_t>(i)] = static_cast<UserId>(i);
  for (int i = 0; i < 9; ++i) cf.reverse_schedule[static_cast<std::size_t>(i)] = static_cast<UserId>(10 + i);
  for (int i = 0; i < 37; ++i) cf.forward_schedule[static_cast<std::size_t>(i)] = static_cast<UserId>(i % 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeControlFields(cf));
  }
}
BENCHMARK(BM_ControlFieldSerialize);

void BM_ControlFieldParse(benchmark::State& state) {
  const auto blocks = SerializeControlFields(ControlFields{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseControlFields(blocks[0], blocks[1]));
  }
}
BENCHMARK(BM_ControlFieldParse);

void BM_ControlFieldEncodeDecodeRs(benchmark::State& state) {
  // The eager control-field air path: serialize, RS-encode both codewords,
  // decode, parse.  The simulator never runs it: a receiver decodes only a
  // touched word's error pattern (phy::ReceiveWord) and serializes and
  // parses the set only when a word is miscorrected.  This is the per-
  // receiver cost that design removes (tests/eager_air.h keeps the path as
  // a test oracle).
  const auto& rs = fec::ReedSolomon::Osu6448();
  ControlFields cf;
  for (auto _ : state) {
    const auto blocks = SerializeControlFields(cf);
    const auto cw0 = rs.Encode(blocks[0]);
    const auto cw1 = rs.Encode(blocks[1]);
    const auto d0 = rs.Decode(cw0);
    const auto d1 = rs.Decode(cw1);
    benchmark::DoNotOptimize(ParseControlFields(d0->data, d1->data));
  }
}
BENCHMARK(BM_ControlFieldEncodeDecodeRs);

void BM_GpsSlotChurn(benchmark::State& state) {
  for (auto _ : state) {
    GpsSlotManager mgr;
    for (UserId u = 0; u < 8; ++u) mgr.Admit(u);
    mgr.Release(2);
    mgr.Release(5);
    mgr.Admit(10);
    mgr.Release(0);
    benchmark::DoNotOptimize(mgr.Schedule());
  }
}
BENCHMARK(BM_GpsSlotChurn);

void BM_BaseStationPlanCycle(benchmark::State& state) {
  MacConfig config;
  BaseStation bs(config);
  std::uint16_t cycle = 0;
  // Populate: 4 GPS + 10 data users with standing demand.
  for (Ein ein = 1; ein <= 14; ++ein) {
    RegistrationPacket reg;
    reg.ein = ein;
    reg.wants_gps = ein <= 4;
    const UplinkFrame frame = reg;
    UplinkReception r;
    r.outcome = phy::SlotOutcome::kDecoded;
    r.frame = &frame;
    bs.OnDataSlotResolved(1, r);
    bs.PlanCycle(cycle++);
  }
  for (const auto& [uid, ein] : bs.registered_users()) {
    ReservationPacket res;
    res.src = uid;
    res.slots_requested = 10;
    const UplinkFrame frame = res;
    UplinkReception r;
    r.outcome = phy::SlotOutcome::kDecoded;
    r.frame = &frame;
    bs.OnDataSlotResolved(1, r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bs.PlanCycle(cycle++));
  }
}
BENCHMARK(BM_BaseStationPlanCycle);

/// The loaded-cell fixture both end-to-end microbenches step through: 10
/// data users + 4 buses at rho = 0.8, built and warmed by the scenario
/// engine (workloads keep generating while the timing loop steps cycles).
exp::ScenarioSpec LoadedCellSpec() {
  exp::ScenarioSpec spec;
  spec.name = "mac_micro";
  spec.data_users = 10;
  spec.gps_users = 4;
  spec.registration_cycles = 10;
  spec.warmup_cycles = 0;
  spec.reset_stats_after_warmup = false;
  spec.seed = 1;
  spec.workload.rho = 0.8;
  return spec;
}

void BM_FullNotificationCycle(benchmark::State& state) {
  // One whole simulated cycle of a loaded cell, including every RS
  // encode/decode on the air.  This is the simulator's end-to-end unit of
  // work (~4 simulated seconds per iteration).
  exp::ScenarioRun run(LoadedCellSpec());
  run.BuildPopulation();
  run.StartWorkloads();
  for (auto _ : state) {
    run.cell().RunCycles(1);
  }
  state.SetLabel("one 3.98 s notification cycle per iteration");
}
BENCHMARK(BM_FullNotificationCycle);

void BM_FullNotificationCycleTraced(benchmark::State& state) {
  // BM_FullNotificationCycle with an event trace attached; comparing the
  // two bounds the tracer's overhead.  (With no trace attached every
  // emission site is a single null-pointer check, so the untraced variant
  // above also measures the disabled-path cost.)
  exp::ScenarioRun run(LoadedCellSpec());
  run.BuildPopulation();
  run.StartWorkloads();
  obs::EventTrace trace;
  run.cell().AttachTrace(&trace);
  for (auto _ : state) {
    run.cell().RunCycles(1);
  }
  state.counters["events_per_cycle"] = benchmark::Counter(
      static_cast<double>(trace.recorded()),
      benchmark::Counter::kAvgIterations);
  state.SetLabel("one traced 3.98 s notification cycle per iteration");
}
BENCHMARK(BM_FullNotificationCycleTraced);

}  // namespace

OSUMAC_BENCHMARK_MAIN("bench_mac_micro");
