// Tests for packet serialization (regular uplink, GPS, forward).
#include <gtest/gtest.h>

#include <variant>
#include <vector>

#include "mac/packet.h"

namespace osumac::mac {
namespace {

TEST(PacketTest, SizesMatchPaper) {
  EXPECT_EQ(kPacketInfoBytes, 48);     // RS(64,48) information bytes
  EXPECT_EQ(kPacketPayloadBytes, 44);  // 4-byte in-band header
}

TEST(PacketTest, DataPacketRoundTrip) {
  DataPacket p;
  p.header.src = 17;
  p.header.seq = 0x5BC;  // 11-bit sequence field
  p.header.more_slots = 13;
  p.header.frag_index = 5;
  p.dest_ein = 0x4321;
  p.message_id = 0xDEADBEEF;
  p.frag_count = 9;
  p.payload_bytes = 44;
  const auto info = SerializeDataPacket(p);
  EXPECT_EQ(info.size(), 48u);
  const auto parsed = ParseUplinkPacket(info);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(std::holds_alternative<DataPacket>(*parsed));
  EXPECT_EQ(std::get<DataPacket>(*parsed).header.src, 17);
  EXPECT_EQ(std::get<DataPacket>(*parsed).header.seq, 0x5BC);
  EXPECT_EQ(std::get<DataPacket>(*parsed).header.more_slots, 13);
  EXPECT_EQ(std::get<DataPacket>(*parsed).header.frag_index, 5);
  EXPECT_EQ(std::get<DataPacket>(*parsed).dest_ein, 0x4321);
  EXPECT_EQ(std::get<DataPacket>(*parsed).message_id, 0xDEADBEEF);
  EXPECT_EQ(std::get<DataPacket>(*parsed).frag_count, 9);
  EXPECT_EQ(std::get<DataPacket>(*parsed).payload_bytes, 44);
}

TEST(PacketTest, DeregistrationRoundTrip) {
  DeregistrationPacket p;
  p.src = 12;
  p.ein = 0x7777;
  const auto parsed = ParseUplinkPacket(SerializeDeregistrationPacket(p));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(std::holds_alternative<DeregistrationPacket>(*parsed));
  EXPECT_EQ(std::get<DeregistrationPacket>(*parsed).src, 12);
  EXPECT_EQ(std::get<DeregistrationPacket>(*parsed).ein, 0x7777);
}

TEST(PacketTest, ForwardAckRoundTrip) {
  ForwardAckPacket p;
  p.header.src = 20;
  p.header.more_slots = 4;
  p.count = 3;
  p.acks[0] = {0x1111, 0};
  p.acks[1] = {0x1111, 1};
  p.acks[2] = {0x2222, 5};
  const auto parsed = ParseUplinkPacket(SerializeForwardAckPacket(p));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(std::holds_alternative<ForwardAckPacket>(*parsed));
  EXPECT_EQ(std::get<ForwardAckPacket>(*parsed).header.src, 20);
  EXPECT_EQ(std::get<ForwardAckPacket>(*parsed).header.more_slots, 4);
  EXPECT_EQ(std::get<ForwardAckPacket>(*parsed).count, 3);
  EXPECT_EQ(std::get<ForwardAckPacket>(*parsed).acks[0], (ForwardAckEntry{0x1111, 0}));
  EXPECT_EQ(std::get<ForwardAckPacket>(*parsed).acks[2], (ForwardAckEntry{0x2222, 5}));
}

TEST(PacketTest, ReservationRoundTrip) {
  ReservationPacket p;
  p.src = 42;
  p.slots_requested = 7;
  const auto parsed = ParseUplinkPacket(SerializeReservationPacket(p));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(std::holds_alternative<ReservationPacket>(*parsed));
  EXPECT_EQ(std::get<ReservationPacket>(*parsed).src, 42);
  EXPECT_EQ(std::get<ReservationPacket>(*parsed).slots_requested, 7);
}

TEST(PacketTest, RegistrationRoundTrip) {
  for (bool gps : {false, true}) {
    RegistrationPacket p;
    p.ein = 0xCAFE;
    p.wants_gps = gps;
    const auto parsed = ParseUplinkPacket(SerializeRegistrationPacket(p));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(std::holds_alternative<RegistrationPacket>(*parsed));
    EXPECT_EQ(std::get<RegistrationPacket>(*parsed).ein, 0xCAFE);
    EXPECT_EQ(std::get<RegistrationPacket>(*parsed).wants_gps, gps);
  }
}

TEST(PacketTest, GpsPacketIs72BitsInNineBytes) {
  GpsPacket p;
  p.ein = 0xBEEF;
  p.latitude = 0x123456;
  p.longitude = 0xABCDEF;
  p.timestamp = 0x42;
  const auto info = SerializeGpsPacket(p);
  EXPECT_EQ(info.size(), 9u) << "72 information bits";
  const auto parsed = ParseGpsPacket(info);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ein, 0xBEEF);
  EXPECT_EQ(parsed->latitude, 0x123456u);
  EXPECT_EQ(parsed->longitude, 0xABCDEFu);
  EXPECT_EQ(parsed->timestamp, 0x42);
}

TEST(PacketTest, ForwardDataRoundTrip) {
  ForwardDataPacket p;
  p.dest = 33;
  p.message_id = 777;
  p.frag_index = 2;
  p.frag_count = 4;
  p.payload_bytes = 10;
  const auto parsed = ParseForwardDataPacket(SerializeForwardDataPacket(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dest, 33);
  EXPECT_EQ(parsed->message_id, 777u);
  EXPECT_EQ(parsed->frag_index, 2);
  EXPECT_EQ(parsed->frag_count, 4);
  EXPECT_EQ(parsed->payload_bytes, 10);
}

TEST(PacketTest, MalformedInputsRejected) {
  EXPECT_FALSE(ParseUplinkPacket(std::vector<fec::GfElem>(10, 0)).has_value());
  EXPECT_FALSE(ParseGpsPacket(std::vector<fec::GfElem>(48, 0)).has_value());
  EXPECT_FALSE(ParseForwardDataPacket(std::vector<fec::GfElem>(9, 0)).has_value());
  // Unknown kinds (5, 6, 7) rejected.
  for (int kind : {5, 6, 7}) {
    std::vector<fec::GfElem> bogus(48, 0);
    bogus[0] = static_cast<fec::GfElem>(kind << 5);
    EXPECT_FALSE(ParseUplinkPacket(bogus).has_value()) << kind;
  }
}

TEST(PacketTest, OversizedPayloadRejected) {
  DataPacket p;
  p.payload_bytes = 44;
  auto info = SerializeDataPacket(p);
  // Corrupt the payload_bytes field (bits 88..103 of the block) to 2000.
  info[11] = 0x07;
  info[12] = 0xD0;
  const auto parsed = ParseUplinkPacket(info);
  EXPECT_FALSE(parsed.has_value());
}

// --- typed frames ------------------------------------------------------------
// A receiver whose word arrives intact acts on the sender's frame itself, so
// every frame type must survive its own wire format unchanged, down to the
// extremes of each field's width.

UplinkFrame ThroughBytes(const UplinkFrame& frame) {
  std::vector<fec::GfElem> bytes;
  SerializeUplinkFrame(frame, bytes);
  const bool gps = std::holds_alternative<GpsPacket>(frame);
  EXPECT_EQ(bytes.size(), gps ? 9u : 48u);
  const std::optional<UplinkFrame> parsed =
      gps ? std::optional<UplinkFrame>(ParseGpsPacket(bytes)) : ParseUplinkPacket(bytes);
  EXPECT_TRUE(parsed.has_value());
  return parsed.value_or(UplinkFrame{});
}

DataPacket MaxData() {
  DataPacket p;
  p.header.src = 62;
  p.header.seq = 0x7FF;
  p.header.more_slots = 31;
  p.header.frag_index = 127;
  p.dest_ein = 0xFFFF;
  p.message_id = 0xFFFFFFFF;
  p.frag_count = 255;
  p.payload_bytes = kPacketPayloadBytes;
  return p;
}

ForwardAckPacket FullAck() {
  ForwardAckPacket p;
  p.header.kind = PacketKind::kForwardAck;
  p.header.src = 62;
  p.header.seq = 0x7FF;
  p.header.more_slots = 31;
  p.header.frag_index = 127;
  p.count = kMaxForwardAcks;
  for (int i = 0; i < kMaxForwardAcks; ++i) {
    p.acks[static_cast<std::size_t>(i)] = {static_cast<std::uint16_t>(0xFFFF - i), 255};
  }
  return p;
}

std::vector<UplinkFrame> ExtremeFrames() {
  DataPacket empty_data;  // every field zero, src the no-user sentinel
  ForwardAckPacket empty_ack;
  empty_ack.header.kind = PacketKind::kForwardAck;
  return {
      MaxData(),
      empty_data,
      ReservationPacket{62, 255},
      ReservationPacket{0, 0},
      RegistrationPacket{0xFFFF, true},
      RegistrationPacket{0, false},
      DeregistrationPacket{62, 0xFFFF},
      DeregistrationPacket{kNoUser, 0},
      FullAck(),
      empty_ack,
      GpsPacket{0xFFFF, 0xFFFFFF, 0xFFFFFF, 0xFF},
      GpsPacket{},
  };
}

TEST(UplinkFrameTest, ParseOfSerializeIsTheFrameForEveryType) {
  std::vector<bool> seen(std::variant_size_v<UplinkFrame>, false);
  for (const UplinkFrame& frame : ExtremeFrames()) {
    seen[frame.index()] = true;
    EXPECT_TRUE(ThroughBytes(frame) == frame) << "alternative " << frame.index();
  }
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_TRUE(seen[i]) << "alternative " << i;
}

TEST(UplinkFrameTest, ForwardDataParseOfSerializeIsThePacket) {
  for (const ForwardDataPacket& p :
       {ForwardDataPacket{62, 0xFFFFFFFF, 255, 255, kPacketPayloadBytes},
        ForwardDataPacket{0, 0, 0, 0, 0}}) {
    const auto parsed = ParseForwardDataPacket(SerializeForwardDataPacket(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
}

TEST(UplinkFrameTest, ZeroResidualGivesTheSentFrame) {
  for (const UplinkFrame& frame : ExtremeFrames()) {
    const std::size_t k = std::holds_alternative<GpsPacket>(frame) ? 9 : 48;
    const auto received = MiscorrectedUplinkFrame(frame, std::vector<fec::GfElem>(k, 0));
    ASSERT_TRUE(received.has_value());
    EXPECT_TRUE(*received == frame) << "alternative " << frame.index();
  }
}

TEST(UplinkFrameTest, ResidualIsXoredIntoTheSentBytes) {
  // Bit 0 of byte 1 is the low bit of the 6-bit src field (kind:3 src:6).
  std::vector<fec::GfElem> residual(48, 0);
  residual[1] = 0x80;
  const auto received = MiscorrectedUplinkFrame(MaxData(), residual);
  ASSERT_TRUE(received.has_value());
  DataPacket expected = MaxData();
  expected.header.src = 63;
  EXPECT_TRUE(*received == UplinkFrame(expected));

  // A residual that turns the kind into an unknown one leaves nothing.
  std::vector<fec::GfElem> bad_kind(48, 0);
  bad_kind[0] = 0xA0;  // kind 0 -> 5
  EXPECT_FALSE(MiscorrectedUplinkFrame(MaxData(), bad_kind).has_value());

  // A GPS report is re-parsed in its own 9-byte format.
  std::vector<fec::GfElem> gps_residual(9, 0);
  gps_residual[8] = 0x01;
  const auto gps = MiscorrectedUplinkFrame(GpsPacket{0x1234, 1, 2, 0x40}, gps_residual);
  ASSERT_TRUE(gps.has_value());
  EXPECT_TRUE(*gps == UplinkFrame(GpsPacket{0x1234, 1, 2, 0x41}));
}

TEST(UplinkFrameTest, ForwardResidualIsXoredIntoTheSentBytes) {
  const ForwardDataPacket sent{5, 777, 2, 4, 10};
  EXPECT_EQ(MiscorrectedForwardPacket(sent, std::vector<fec::GfElem>(48, 0)), sent);
  std::vector<fec::GfElem> residual(48, 0);
  // dest:6 message_id:32 frag_index:8 frag_count:8 put payload_bytes at
  // bits 54..69: its low bit is bit 5 of byte 8, its top bit bit 6 of byte 6.
  residual[8] = 0x04;
  const auto received = MiscorrectedForwardPacket(sent, residual);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload_bytes, 11);
  residual[6] = 0x02;  // payload_bytes 0x8000 + 11: out of range
  EXPECT_FALSE(MiscorrectedForwardPacket(sent, residual).has_value());
}

}  // namespace
}  // namespace osumac::mac
