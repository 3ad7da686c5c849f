// The typed receive path against the eager oracle (tests/eager_air.h).
//
// The simulator puts typed frames on the air and decodes only error
// patterns: an intact word delivers the sender's frame itself and a
// miscorrected word the sent bytes XOR the decoder's residual, parsed.
// Here every frame kind crosses uniform and Gilbert-Elliott channels twice,
// once through the functions the cell calls (ReverseChannel +
// ReceivedUplinkFrame, ReceiveControlFields, ReceiveForwardPacket) and once
// through serialize -> encode -> corrupt -> decode -> parse, with same-seed
// error models: outcome and frame must agree draw for draw.  A scripted
// error pattern pins one miscorrected word per frame family.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eager_air.h"
#include "fec/reed_solomon.h"
#include "mac/control_fields.h"
#include "mac/packet.h"
#include "phy/channel.h"
#include "phy/error_model.h"

namespace osumac {
namespace {

using mac::UplinkFrame;

// --- random frames at wire widths --------------------------------------------

mac::UserId RandomUid(Rng& rng) { return static_cast<mac::UserId>(rng.UniformInt(0, 63)); }
mac::Ein RandomEin(Rng& rng) { return static_cast<mac::Ein>(rng.UniformInt(0, 0xFFFF)); }

mac::PacketHeader RandomHeader(Rng& rng, mac::PacketKind kind) {
  mac::PacketHeader h;
  h.kind = kind;
  h.src = RandomUid(rng);
  h.seq = static_cast<std::uint16_t>(rng.UniformInt(0, 0x7FF));
  h.more_slots = static_cast<std::uint8_t>(rng.UniformInt(0, 31));
  h.frag_index = static_cast<std::uint8_t>(rng.UniformInt(0, 127));
  return h;
}

UplinkFrame RandomFrame(Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0: {
      mac::DataPacket p;
      p.header = RandomHeader(rng, mac::PacketKind::kData);
      p.dest_ein = RandomEin(rng);
      p.message_id = static_cast<std::uint32_t>(rng.Next());
      p.frag_count = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      p.payload_bytes = static_cast<std::uint16_t>(rng.UniformInt(0, mac::kPacketPayloadBytes));
      return p;
    }
    case 1:
      return mac::ReservationPacket{RandomUid(rng),
                                    static_cast<std::uint8_t>(rng.UniformInt(0, 255))};
    case 2:
      return mac::RegistrationPacket{RandomEin(rng), rng.Bernoulli(0.5)};
    case 3:
      return mac::DeregistrationPacket{RandomUid(rng), RandomEin(rng)};
    case 4: {
      mac::ForwardAckPacket p;
      p.header = RandomHeader(rng, mac::PacketKind::kForwardAck);
      p.count = static_cast<int>(rng.UniformInt(0, mac::kMaxForwardAcks));
      for (int i = 0; i < p.count; ++i) {
        p.acks[static_cast<std::size_t>(i)] = {
            static_cast<std::uint16_t>(rng.UniformInt(0, 0xFFFF)),
            static_cast<std::uint8_t>(rng.UniformInt(0, 255))};
      }
      return p;
    }
    default:
      return mac::GpsPacket{RandomEin(rng),
                            static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFF)),
                            static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFF)),
                            static_cast<std::uint8_t>(rng.UniformInt(0, 255))};
  }
}

mac::ForwardDataPacket RandomForward(Rng& rng) {
  return {RandomUid(rng), static_cast<std::uint32_t>(rng.Next()),
          static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
          static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
          static_cast<std::uint16_t>(rng.UniformInt(0, mac::kPacketPayloadBytes))};
}

mac::ControlFields RandomControlFields(Rng& rng) {
  mac::ControlFields cf;
  cf.cycle = static_cast<std::uint16_t>(rng.UniformInt(0, 0xFFFF));
  cf.is_second_set = rng.Bernoulli(0.5);
  for (mac::UserId& u : cf.gps_schedule) u = RandomUid(rng);
  for (mac::UserId& u : cf.reverse_schedule) u = RandomUid(rng);
  for (mac::UserId& u : cf.forward_schedule) u = RandomUid(rng);
  for (mac::UserId& u : cf.reverse_acks) u = RandomUid(rng);
  cf.gps_ack_bitmap = static_cast<std::uint8_t>(rng.UniformInt(0, 0xFF));
  cf.grant_count = static_cast<int>(rng.UniformInt(0, mac::kMaxRegistrationGrants));
  for (mac::RegistrationGrant& g : cf.grants) g = {RandomEin(rng), RandomUid(rng)};
  cf.late_ack = RandomUid(rng);
  if (rng.Bernoulli(0.5)) cf.late_grant = mac::RegistrationGrant{RandomEin(rng), RandomUid(rng)};
  cf.paged_count = static_cast<int>(rng.UniformInt(0, mac::kMaxPagedUsers));
  for (mac::Ein& e : cf.paging) e = RandomEin(rng);
  return cf;
}

// --- the typed path, as the cell runs it ----------------------------------------

/// One uplink frame through a reverse slot: kDecoded/kDecodeFailure and,
/// when decoded, the frame the base station acts on.
oracle::EagerReception<UplinkFrame> TypedReceiveUplink(const UplinkFrame& sent,
                                                       phy::SymbolErrorModel& model,
                                                       bool side_info) {
  const bool gps = std::holds_alternative<mac::GpsPacket>(sent);
  const fec::ReedSolomon& code = gps ? fec::ReedSolomon::Osu329() : fec::ReedSolomon::Osu6448();
  phy::ReverseChannel channel;
  phy::CodedBurst burst;
  burst.on_air = {0, 100};
  burst.sender = 0;
  channel.Transmit(burst);
  phy::ChannelScratch scratch;
  phy::SlotReception reception;
  channel.ResolveSlotPerSenderInto(
      {0, 100}, code, [&model](int) -> phy::SymbolErrorModel& { return model; }, scratch,
      reception, side_info);
  oracle::EagerReception<UplinkFrame> out;
  if (reception.outcome != phy::SlotOutcome::kDecoded) return out;
  out.decoded = true;
  std::optional<UplinkFrame> own;
  if (const UplinkFrame* frame = mac::ReceivedUplinkFrame(sent, reception, own)) {
    out.frame = *frame;
  }
  return out;
}

template <typename Frame>
oracle::EagerReception<Frame> Typed(const Frame* frame, bool decoded) {
  oracle::EagerReception<Frame> out;
  out.decoded = decoded;
  if (frame != nullptr) out.frame = *frame;
  return out;
}

// --- models ------------------------------------------------------------------

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<phy::SymbolErrorModel>(std::uint64_t)> make;
  bool side_info = false;
};

std::vector<ModelCase> Models() {
  const phy::GilbertElliottModel::Params defaults;
  const phy::GilbertElliottModel::Params harsh{0.3, 0.3, 0.1, 0.5};
  const auto uniform = [](double p) {
    return [p](std::uint64_t seed) {
      return std::make_unique<phy::UniformErrorModel>(p, seed);
    };
  };
  const auto ge = [](phy::GilbertElliottModel::Params params) {
    return [params](std::uint64_t seed) {
      return std::make_unique<phy::GilbertElliottModel>(params, seed);
    };
  };
  return {
      {"uniform_0_08", uniform(0.08)},
      {"uniform_0_15", uniform(0.15)},
      {"ge_defaults", ge(defaults)},
      {"ge_harsh", ge(harsh)},
      {"ge_harsh_side_info", ge(harsh), true},
  };
}

void PrintTo(const ModelCase& m, std::ostream* os) { *os << m.name; }

class TypedAirTest : public ::testing::TestWithParam<ModelCase> {};

constexpr int kTrials = 4000;

TEST_P(TypedAirTest, UplinkFramesMatchTheEagerOracle) {
  const ModelCase& m = GetParam();
  auto typed_model = m.make(77);
  auto eager_model = m.make(77);
  Rng rng(501);
  int lost = 0, delivered = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const UplinkFrame sent = RandomFrame(rng);
    const auto typed = TypedReceiveUplink(sent, *typed_model, m.side_info);
    const auto eager = oracle::EagerReceiveUplink(sent, *eager_model, m.side_info);
    ASSERT_EQ(typed.decoded, eager.decoded) << "trial " << trial;
    ASSERT_EQ(typed.frame.has_value(), eager.frame.has_value()) << "trial " << trial;
    if (typed.frame.has_value()) {
      ASSERT_TRUE(*typed.frame == *eager.frame) << "trial " << trial;
    }
    typed.decoded ? ++delivered : ++lost;
  }
  EXPECT_GT(lost, 0) << "the channel must lose some words";
  EXPECT_GT(delivered, 0);
}

TEST_P(TypedAirTest, ControlFieldsMatchTheEagerOracle) {
  const ModelCase& m = GetParam();
  auto typed_model = m.make(78);
  auto eager_model = m.make(78);
  Rng rng(502);
  phy::ChannelScratch scratch;
  for (int trial = 0; trial < kTrials; ++trial) {
    const mac::ControlFields sent = RandomControlFields(rng);
    std::optional<mac::ControlFields> own;
    const mac::ControlFields* got = mac::ReceiveControlFields(
        sent, fec::ReedSolomon::Osu6448(), *typed_model, scratch, m.side_info, own);
    const auto eager = oracle::EagerReceiveControlFields(sent, *eager_model, m.side_info);
    ASSERT_EQ(got != nullptr, eager.frame.has_value()) << "trial " << trial;
    if (got != nullptr) {
      ASSERT_EQ(*got, *eager.frame) << "trial " << trial;
    }
  }
}

TEST_P(TypedAirTest, ForwardPacketsMatchTheEagerOracle) {
  const ModelCase& m = GetParam();
  auto typed_model = m.make(79);
  auto eager_model = m.make(79);
  Rng rng(503);
  phy::ChannelScratch scratch;
  for (int trial = 0; trial < kTrials; ++trial) {
    const mac::ForwardDataPacket sent = RandomForward(rng);
    std::optional<mac::ForwardDataPacket> own;
    const mac::ForwardDataPacket* got = mac::ReceiveForwardPacket(
        sent, fec::ReedSolomon::Osu6448(), *typed_model, scratch, m.side_info, own);
    const auto eager = oracle::EagerReceiveForward(sent, *eager_model, m.side_info);
    ASSERT_EQ(got != nullptr, eager.frame.has_value()) << "trial " << trial;
    if (got != nullptr) {
      ASSERT_EQ(*got, *eager.frame) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, TypedAirTest, ::testing::ValuesIn(Models()),
                         [](const ::testing::TestParamInfo<ModelCase>& info) {
                           return info.param.name;
                         });

// --- a pinned miscorrection ----------------------------------------------------

/// XORs one fixed pattern into every word (the XOR contract holds: the
/// pattern never depends on the word).
class ScriptedModel final : public phy::SymbolErrorModel {
 public:
  explicit ScriptedModel(std::vector<fec::GfElem> pattern) : pattern_(std::move(pattern)) {}
  int Corrupt(std::span<fec::GfElem> word) override {
    int hits = 0;
    for (std::size_t i = 0; i < word.size(); ++i) {
      word[i] ^= pattern_[i];
      hits += pattern_[i] != 0 ? 1 : 0;
    }
    return hits;
  }

 private:
  std::vector<fec::GfElem> pattern_;
};

/// A pattern the decoder miscorrects: the codeword of `delta` plus one
/// correctable symbol error, so decode(e) "corrects" to that codeword and
/// leaves `delta` as the information residual.
std::vector<fec::GfElem> MiscorrectingPattern(const fec::ReedSolomon& code,
                                              std::vector<fec::GfElem> delta) {
  std::vector<fec::GfElem> e = code.Encode(delta);
  e.back() ^= 0x5A;
  return e;
}

TEST(TypedAirPinnedTest, MiscorrectedUplinkWordDeliversTheOraclesFrame) {
  mac::DataPacket sent;
  sent.header.src = 12;
  sent.header.seq = 100;
  sent.message_id = 4242;
  sent.frag_count = 3;
  sent.payload_bytes = 44;
  std::vector<fec::GfElem> delta(48, 0);
  delta[1] = 0x80;   // src 12 -> 13
  delta[20] = 0xFF;  // inside the synthetic fill: invisible to the MAC
  const auto pattern = MiscorrectingPattern(fec::ReedSolomon::Osu6448(), delta);
  ScriptedModel typed_model(pattern), eager_model(pattern);
  const auto typed = TypedReceiveUplink(sent, typed_model, false);
  const auto eager = oracle::EagerReceiveUplink(sent, eager_model, false);
  ASSERT_TRUE(typed.decoded);
  ASSERT_TRUE(eager.decoded);
  ASSERT_TRUE(typed.frame.has_value());
  ASSERT_TRUE(eager.frame.has_value());
  EXPECT_TRUE(*typed.frame == *eager.frame);
  ASSERT_TRUE(std::holds_alternative<mac::DataPacket>(*typed.frame));
  EXPECT_EQ(std::get<mac::DataPacket>(*typed.frame).header.src, 13);

  // A residual on the kind bits leaves bytes neither path can parse.
  std::vector<fec::GfElem> kind_delta(48, 0);
  kind_delta[0] = 0xE0;  // kind 0 -> 7
  const auto bad = MiscorrectingPattern(fec::ReedSolomon::Osu6448(), kind_delta);
  ScriptedModel typed_bad(bad), eager_bad(bad);
  const auto typed_lost = TypedReceiveUplink(sent, typed_bad, false);
  const auto eager_lost = oracle::EagerReceiveUplink(sent, eager_bad, false);
  EXPECT_TRUE(typed_lost.decoded);
  EXPECT_TRUE(eager_lost.decoded);
  EXPECT_FALSE(typed_lost.frame.has_value());
  EXPECT_FALSE(eager_lost.frame.has_value());
}

TEST(TypedAirPinnedTest, MiscorrectedControlFieldWordDeliversTheOraclesFields) {
  Rng rng(504);
  const mac::ControlFields sent = RandomControlFields(rng);
  std::vector<fec::GfElem> delta(48, 0);
  delta[0] = 0x01;  // cycle counter bit 8 (word 1)
  const auto pattern = MiscorrectingPattern(fec::ReedSolomon::Osu6448(), delta);
  ScriptedModel typed_model(pattern), eager_model(pattern);
  phy::ChannelScratch scratch;
  std::optional<mac::ControlFields> own;
  const mac::ControlFields* got = mac::ReceiveControlFields(
      sent, fec::ReedSolomon::Osu6448(), typed_model, scratch, false, own);
  const auto eager = oracle::EagerReceiveControlFields(sent, eager_model, false);
  ASSERT_NE(got, nullptr);
  ASSERT_TRUE(eager.frame.has_value());
  EXPECT_EQ(*got, *eager.frame);
  EXPECT_EQ(got, &*own) << "a miscorrected receiver acts on its own bytes";
  EXPECT_EQ(got->cycle, sent.cycle ^ 0x0100);
}

TEST(TypedAirPinnedTest, MiscorrectedForwardWordDeliversTheOraclesPacket) {
  const mac::ForwardDataPacket sent{7, 99, 1, 2, 40};
  std::vector<fec::GfElem> delta(48, 0);
  delta[8] = 0x04;  // payload_bytes low bit: 40 -> 41
  const auto pattern = MiscorrectingPattern(fec::ReedSolomon::Osu6448(), delta);
  ScriptedModel typed_model(pattern), eager_model(pattern);
  phy::ChannelScratch scratch;
  std::optional<mac::ForwardDataPacket> own;
  const mac::ForwardDataPacket* got = mac::ReceiveForwardPacket(
      sent, fec::ReedSolomon::Osu6448(), typed_model, scratch, false, own);
  const auto eager = oracle::EagerReceiveForward(sent, eager_model, false);
  ASSERT_NE(got, nullptr);
  ASSERT_TRUE(eager.frame.has_value());
  EXPECT_EQ(*got, *eager.frame);
  EXPECT_EQ(got->payload_bytes, 41);
}

TEST(TypedAirPinnedTest, IntactWordsDeliverTheSentObjectItself) {
  Rng rng(505);
  const mac::ControlFields cf = RandomControlFields(rng);
  phy::PerfectChannel model;
  phy::ChannelScratch scratch;
  std::optional<mac::ControlFields> own;
  EXPECT_EQ(mac::ReceiveControlFields(cf, fec::ReedSolomon::Osu6448(), model, scratch, false,
                                      own),
            &cf);
  EXPECT_FALSE(own.has_value()) << "nothing serialized or parsed";
  const mac::ForwardDataPacket fwd = RandomForward(rng);
  std::optional<mac::ForwardDataPacket> own_fwd;
  EXPECT_EQ(mac::ReceiveForwardPacket(fwd, fec::ReedSolomon::Osu6448(), model, scratch, false,
                                      own_fwd),
            &fwd);
  EXPECT_FALSE(own_fwd.has_value());
}

}  // namespace
}  // namespace osumac
