// Robustness tests: random-bytes fuzzing of every wire parser, decoder
// fuzzing, and randomized whole-cell scenario fuzzing with invariant
// checks.  Nothing here asserts on specific outcomes — only that malformed
// or adversarial inputs never corrupt state, crash, or break invariants.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "decoded_bytes.h"
#include "fec/reed_solomon.h"
#include "mac/cell.h"
#include "mac/control_fields.h"
#include "mac/packet.h"

namespace osumac {
namespace {

std::vector<fec::GfElem> RandomBytes(int n, Rng& rng) {
  std::vector<fec::GfElem> bytes(static_cast<std::size_t>(n));
  for (auto& b : bytes) b = static_cast<fec::GfElem>(rng.UniformInt(0, 255));
  return bytes;
}

TEST(FuzzTest, UplinkPacketParserSurvivesRandomBytes) {
  Rng rng(301);
  int parsed = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const auto bytes = RandomBytes(48, rng);
    const auto packet = mac::ParseUplinkPacket(bytes);
    if (!packet.has_value()) continue;
    ++parsed;
    // Whatever parsed must be internally consistent.
    if (const auto* data = std::get_if<mac::DataPacket>(&*packet)) {
      EXPECT_LE(data->payload_bytes, mac::kPacketPayloadBytes);
    } else if (const auto* ack = std::get_if<mac::ForwardAckPacket>(&*packet)) {
      EXPECT_LE(ack->count, mac::kMaxForwardAcks);
    } else {
      ASSERT_FALSE(std::holds_alternative<mac::GpsPacket>(*packet))
          << "a 48-byte block never parses as a GPS report";
    }
  }
  EXPECT_GT(parsed, 0) << "some random blocks should parse (weak headers)";
}

TEST(FuzzTest, ControlFieldParserSurvivesRandomBytes) {
  Rng rng(302);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto b0 = RandomBytes(48, rng);
    const auto b1 = RandomBytes(48, rng);
    const auto cf = mac::ParseControlFields(b0, b1);
    if (cf.has_value()) {
      EXPECT_LE(cf->grant_count, mac::kMaxRegistrationGrants);
      EXPECT_LE(cf->paged_count, mac::kMaxPagedUsers);
      EXPECT_GE(cf->ActiveGpsCount(), 0);
      EXPECT_LE(cf->ActiveGpsCount(), 8);
    }
  }
}

TEST(FuzzTest, GpsParserSurvivesRandomBytes) {
  Rng rng(303);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto bytes = RandomBytes(9, rng);
    const auto gps = mac::ParseGpsPacket(bytes);
    ASSERT_TRUE(gps.has_value());  // all 72-bit patterns are valid reports
    EXPECT_LE(gps->latitude, 0xFFFFFFu);
    EXPECT_LE(gps->longitude, 0xFFFFFFu);
  }
}

TEST(FuzzTest, RsDecoderSurvivesRandomWords) {
  // Feed entirely random 64-byte words: the decoder must reject or return
  // a word that is actually a codeword — never crash or return garbage.
  Rng rng(304);
  const auto& rs = fec::ReedSolomon::Osu6448();
  int accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const auto word = RandomBytes(64, rng);
    const auto result = rs.Decode(word);
    if (!result.has_value()) continue;
    ++accepted;
    // Reconstruct the full codeword and verify it.
    auto reencoded = rs.Encode(result->data);
    EXPECT_TRUE(rs.IsCodeword(reencoded));
  }
  // Random words land within distance t of a codeword essentially never.
  EXPECT_LT(accepted, 5);
}

TEST(FuzzTest, HostileBytesOnTheAirDoNotCorruptTheBaseStation) {
  // A malfunctioning mobile blasts random bytes into every contention
  // slot.  The base station must shrug: no bogus registrations beyond
  // what the (rare) valid-looking registration packets produce, no crash,
  // and legitimate users keep working.
  mac::CellConfig config;
  config.seed = 305;
  mac::Cell cell(config);
  const int good = cell.AddSubscriber(false);
  cell.PowerOn(good);
  cell.RunCycles(4);
  ASSERT_EQ(cell.subscriber(good).state(), mac::MobileSubscriber::State::kActive);

  // Inject garbage directly at the BaseStation interface (simulating
  // whatever the channel might decode).  Some garbage inevitably parses as
  // registrations (phantom users) or data packets whose piggyback field
  // plants phantom *demand*; the scheduler wastes slots on it until the
  // grants drain (idle-assigned slots), then recovers.
  Rng rng(306);
  auto& bs = cell.base_station();
  for (int i = 0; i < 200; ++i) {
    const mac::DecodedBytes r(RandomBytes(48, rng));
    bs.OnDataSlotResolved(static_cast<int>(rng.UniformInt(0, 8)), r);
  }
  // The legitimate user still works end to end once the phantom demand
  // has drained.
  ASSERT_TRUE(cell.SendUplinkMessage(good, 120));
  cell.RunCycles(60);
  EXPECT_EQ(cell.subscriber(good).stats().packets_delivered, 3);
  EXPECT_GT(cell.base_station().counters().idle_assigned_slots, 0)
      << "phantom grants went unused — the visible cost of the attack";
  // Garbage with random EINs may register phantom users, but never more
  // than the ID space allows, and the tables stay consistent.
  EXPECT_LE(static_cast<int>(bs.registered_users().size()), mac::kMaxActiveUsers);
  for (const auto& [uid, ein] : bs.registered_users()) {
    EXPECT_EQ(bs.UserIdForEin(ein), uid);
  }
}

TEST(FuzzTest, RandomizedScenarioInvariants) {
  // Random populations, power cycles, handoff-like sign-offs, traffic and
  // channel noise across seeds; after every step the cell must satisfy its
  // structural invariants.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    mac::CellConfig config;
    config.seed = seed;
    config.reverse.kind = mac::ChannelModelConfig::Kind::kUniform;
    config.reverse.symbol_error_prob = 0.02;
    mac::Cell cell(config);
    std::vector<int> nodes;
    for (int i = 0; i < 12; ++i) nodes.push_back(cell.AddSubscriber(rng.Bernoulli(0.3)));

    for (int step = 0; step < 60; ++step) {
      const int node = nodes[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1))];
      switch (rng.UniformInt(0, 4)) {
        case 0:
          cell.PowerOn(node);
          break;
        case 1:
          cell.SignOff(node);
          break;
        case 2:
          cell.SendUplinkMessage(node, static_cast<int>(rng.UniformInt(10, 400)));
          break;
        case 3:
          cell.SendDownlinkMessage(node, static_cast<int>(rng.UniformInt(10, 400)));
          break;
        case 4:
          cell.RequestSignOff(node);
          break;
      }
      cell.RunCycles(static_cast<int>(rng.UniformInt(1, 3)));

      // Invariants.
      const auto& bs = cell.base_station();
      EXPECT_TRUE(bs.gps_manager().IsDensePrefix()) << "seed " << seed;
      EXPECT_LE(static_cast<int>(bs.registered_users().size()), mac::kMaxActiveUsers);
      for (const auto& [uid, ein] : bs.registered_users()) {
        EXPECT_EQ(bs.UserIdForEin(ein), uid) << "seed " << seed;
      }
      EXPECT_LE(cell.metrics().unique_payload_bytes, cell.metrics().offered_bytes);
    }
  }
}

TEST(CheckingDelayTest, PagedGpsBusActivatesWithinAMinute) {
  // Section 2.1: "up to 8 active GPS users with 1 minute checking delay" —
  // the delay for a non-active terminal to become active.  An inactive bus
  // listens to CF1 once per inactive_listen_period_cycles (default 15
  // cycles ~ 60 s); paging must activate it within that budget plus a
  // couple of registration cycles.
  mac::CellConfig config;
  config.seed = 307;
  mac::Cell cell(config);
  const int bus = cell.AddSubscriber(true);  // inactive: never powered on
  cell.RunCycles(3);

  cell.base_station().Page(cell.subscriber(bus).ein());
  const Tick paged_at = cell.simulator().now();
  int cycles = 0;
  while (cell.subscriber(bus).state() != mac::MobileSubscriber::State::kActive &&
         cycles++ < 30) {
    cell.RunCycles(1);
  }
  ASSERT_EQ(cell.subscriber(bus).state(), mac::MobileSubscriber::State::kActive);
  const double checking_delay_s = ToSeconds(cell.simulator().now() - paged_at);
  EXPECT_LE(checking_delay_s, 60.0 + 2 * ToSeconds(mac::kCycleTicks))
      << "one listen period plus registration";
  // And it starts reporting immediately.
  cell.ResetStats();
  cell.RunCycles(3);
  EXPECT_GE(cell.subscriber(bus).stats().gps_reports_sent, 2);
}

}  // namespace
}  // namespace osumac
