#include "mac/packet.h"

#include <type_traits>

#include "common/bitio.h"
#include "common/check.h"

namespace osumac::mac {

namespace {

void WriteHeader(BitWriter& w, const PacketHeader& h) {
  w.Write(static_cast<std::uint64_t>(h.kind), 3);
  w.Write(h.src, kUserIdBits);
  w.Write(h.seq & 0x7FF, 11);
  w.Write(h.more_slots & 0x1F, 5);
  w.Write(h.frag_index & 0x7F, 7);
}

PacketHeader ReadHeader(BitReader& r) {
  PacketHeader h;
  h.kind = static_cast<PacketKind>(r.Read(3));
  h.src = static_cast<UserId>(r.Read(kUserIdBits));
  h.seq = static_cast<std::uint16_t>(r.Read(11));
  h.more_slots = static_cast<std::uint8_t>(r.Read(5));
  h.frag_index = static_cast<std::uint8_t>(r.Read(7));
  return h;
}

/// Resizes `out` to an info block of `bytes` and returns a writer over it.
BitWriter BlockWriter(std::vector<fec::GfElem>& out, int bytes) {
  out.resize(static_cast<std::size_t>(bytes));
  return BitWriter(out);
}

/// The allocating form of an out-parameter serializer.
template <typename Packet>
std::vector<fec::GfElem> Returned(
    const Packet& p, void (*serialize)(const Packet&, std::vector<fec::GfElem>&)) {
  std::vector<fec::GfElem> out;
  serialize(p, out);
  return out;
}

}  // namespace

void SerializeDataPacket(const DataPacket& p, std::vector<fec::GfElem>& out) {
  OSUMAC_CHECK_LE(p.payload_bytes, kPacketPayloadBytes);
  BitWriter w = BlockWriter(out, kPacketInfoBytes);
  PacketHeader h = p.header;
  h.kind = PacketKind::kData;
  WriteHeader(w, h);
  w.Write(p.dest_ein, kEinBits);
  w.Write(p.message_id, 32);
  w.Write(p.frag_count, 8);
  w.Write(p.payload_bytes, 16);
  // Deterministic fill standing in for the payload bytes so the codeword
  // exercises the channel like real data would.
  for (int i = 0; i < kPacketInfoBytes - kPacketHeaderBytes - 9; ++i) {
    w.Write(static_cast<std::uint64_t>((p.message_id + static_cast<std::uint32_t>(i)) & 0xFF), 8);
  }
}

std::vector<fec::GfElem> SerializeDataPacket(const DataPacket& p) {
  return Returned(p, SerializeDataPacket);
}

void SerializeReservationPacket(const ReservationPacket& p,
                                std::vector<fec::GfElem>& out) {
  BitWriter w = BlockWriter(out, kPacketInfoBytes);
  PacketHeader h;
  h.kind = PacketKind::kReservation;
  h.src = p.src;
  WriteHeader(w, h);
  w.Write(p.slots_requested, 8);
}

std::vector<fec::GfElem> SerializeReservationPacket(const ReservationPacket& p) {
  return Returned(p, SerializeReservationPacket);
}

void SerializeRegistrationPacket(const RegistrationPacket& p,
                                 std::vector<fec::GfElem>& out) {
  BitWriter w = BlockWriter(out, kPacketInfoBytes);
  PacketHeader h;
  h.kind = PacketKind::kRegistration;
  WriteHeader(w, h);
  w.Write(p.ein, kEinBits);
  w.Write(p.wants_gps ? 1 : 0, 1);
}

std::vector<fec::GfElem> SerializeRegistrationPacket(const RegistrationPacket& p) {
  return Returned(p, SerializeRegistrationPacket);
}

void SerializeDeregistrationPacket(const DeregistrationPacket& p,
                                   std::vector<fec::GfElem>& out) {
  BitWriter w = BlockWriter(out, kPacketInfoBytes);
  PacketHeader h;
  h.kind = PacketKind::kDeregistration;
  h.src = p.src;
  WriteHeader(w, h);
  w.Write(p.ein, kEinBits);
}

std::vector<fec::GfElem> SerializeDeregistrationPacket(const DeregistrationPacket& p) {
  return Returned(p, SerializeDeregistrationPacket);
}

void SerializeForwardAckPacket(const ForwardAckPacket& p, std::vector<fec::GfElem>& out) {
  OSUMAC_CHECK(p.count >= 0 && p.count <= kMaxForwardAcks);
  BitWriter w = BlockWriter(out, kPacketInfoBytes);
  PacketHeader h = p.header;
  h.kind = PacketKind::kForwardAck;
  WriteHeader(w, h);
  w.Write(static_cast<std::uint64_t>(p.count), 4);
  for (const ForwardAckEntry& e : p.acks) {
    w.Write(e.message_id_low, 16);
    w.Write(e.frag_index, 8);
  }
}

std::vector<fec::GfElem> SerializeForwardAckPacket(const ForwardAckPacket& p) {
  return Returned(p, SerializeForwardAckPacket);
}

void SerializeGpsPacket(const GpsPacket& p, std::vector<fec::GfElem>& out) {
  BitWriter w = BlockWriter(out, 9);
  w.Write(p.ein, 16);
  w.Write(p.latitude & 0xFFFFFF, 24);
  w.Write(p.longitude & 0xFFFFFF, 24);
  w.Write(p.timestamp, 8);
}

std::vector<fec::GfElem> SerializeGpsPacket(const GpsPacket& p) {
  return Returned(p, SerializeGpsPacket);
}

void SerializeForwardDataPacket(const ForwardDataPacket& p,
                                 std::vector<fec::GfElem>& out) {
  OSUMAC_CHECK_LE(p.payload_bytes, kPacketPayloadBytes);
  BitWriter w = BlockWriter(out, kPacketInfoBytes);
  w.Write(p.dest, kUserIdBits);
  w.Write(p.message_id, 32);
  w.Write(p.frag_index, 8);
  w.Write(p.frag_count, 8);
  w.Write(p.payload_bytes, 16);
  for (int i = 0; i < kPacketPayloadBytes - 5; ++i) {
    w.Write(static_cast<std::uint64_t>((p.message_id + static_cast<std::uint32_t>(i)) & 0xFF), 8);
  }
}

std::vector<fec::GfElem> SerializeForwardDataPacket(const ForwardDataPacket& p) {
  return Returned(p, SerializeForwardDataPacket);
}

std::optional<UplinkFrame> ParseUplinkPacket(std::span<const fec::GfElem> info) {
  if (static_cast<int>(info.size()) != kPacketInfoBytes) return std::nullopt;
  BitReader r(info);
  const PacketHeader h = ReadHeader(r);
  switch (h.kind) {
    case PacketKind::kData: {
      DataPacket p;
      p.header = h;
      p.dest_ein = static_cast<Ein>(r.Read(kEinBits));
      p.message_id = static_cast<std::uint32_t>(r.Read(32));
      p.frag_count = static_cast<std::uint8_t>(r.Read(8));
      p.payload_bytes = static_cast<std::uint16_t>(r.Read(16));
      if (p.payload_bytes > kPacketPayloadBytes) return std::nullopt;
      return p;
    }
    case PacketKind::kReservation: {
      ReservationPacket p;
      p.src = h.src;
      p.slots_requested = static_cast<std::uint8_t>(r.Read(8));
      return p;
    }
    case PacketKind::kRegistration: {
      RegistrationPacket p;
      p.ein = static_cast<Ein>(r.Read(kEinBits));
      p.wants_gps = r.Read(1) != 0;
      return p;
    }
    case PacketKind::kDeregistration: {
      DeregistrationPacket p;
      p.src = h.src;
      p.ein = static_cast<Ein>(r.Read(kEinBits));
      return p;
    }
    case PacketKind::kForwardAck: {
      ForwardAckPacket p;
      p.header = h;
      p.count = static_cast<int>(r.Read(4));
      if (p.count > kMaxForwardAcks) return std::nullopt;
      for (ForwardAckEntry& e : p.acks) {
        e.message_id_low = static_cast<std::uint16_t>(r.Read(16));
        e.frag_index = static_cast<std::uint8_t>(r.Read(8));
      }
      return p;
    }
  }
  return std::nullopt;
}

std::optional<GpsPacket> ParseGpsPacket(std::span<const fec::GfElem> info) {
  if (info.size() != 9) return std::nullopt;
  BitReader r(info);
  GpsPacket p;
  p.ein = static_cast<Ein>(r.Read(16));
  p.latitude = static_cast<std::uint32_t>(r.Read(24));
  p.longitude = static_cast<std::uint32_t>(r.Read(24));
  p.timestamp = static_cast<std::uint8_t>(r.Read(8));
  return p;
}

std::optional<ForwardDataPacket> ParseForwardDataPacket(std::span<const fec::GfElem> info) {
  if (static_cast<int>(info.size()) != kPacketInfoBytes) return std::nullopt;
  BitReader r(info);
  ForwardDataPacket p;
  p.dest = static_cast<UserId>(r.Read(kUserIdBits));
  p.message_id = static_cast<std::uint32_t>(r.Read(32));
  p.frag_index = static_cast<std::uint8_t>(r.Read(8));
  p.frag_count = static_cast<std::uint8_t>(r.Read(8));
  p.payload_bytes = static_cast<std::uint16_t>(r.Read(16));
  if (p.payload_bytes > kPacketPayloadBytes) return std::nullopt;
  return p;
}

void SerializeUplinkFrame(const UplinkFrame& frame, std::vector<fec::GfElem>& out) {
  std::visit(
      [&out](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, DataPacket>) SerializeDataPacket(p, out);
        if constexpr (std::is_same_v<T, ReservationPacket>) SerializeReservationPacket(p, out);
        if constexpr (std::is_same_v<T, RegistrationPacket>) {
          SerializeRegistrationPacket(p, out);
        }
        if constexpr (std::is_same_v<T, DeregistrationPacket>) {
          SerializeDeregistrationPacket(p, out);
        }
        if constexpr (std::is_same_v<T, ForwardAckPacket>) SerializeForwardAckPacket(p, out);
        if constexpr (std::is_same_v<T, GpsPacket>) SerializeGpsPacket(p, out);
      },
      frame);
}

namespace {

/// XORs an information residual into serialized bytes of the same length.
void ApplyResidual(std::vector<fec::GfElem>& bytes, std::span<const fec::GfElem> residual) {
  OSUMAC_CHECK_EQ(bytes.size(), residual.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] ^= residual[i];
}

}  // namespace

std::optional<UplinkFrame> MiscorrectedUplinkFrame(const UplinkFrame& sent,
                                                   std::span<const fec::GfElem> residual) {
  std::vector<fec::GfElem> bytes;
  SerializeUplinkFrame(sent, bytes);
  ApplyResidual(bytes, residual);
  if (std::holds_alternative<GpsPacket>(sent)) return ParseGpsPacket(bytes);
  return ParseUplinkPacket(bytes);
}

std::optional<ForwardDataPacket> MiscorrectedForwardPacket(
    const ForwardDataPacket& sent, std::span<const fec::GfElem> residual) {
  std::vector<fec::GfElem> bytes;
  SerializeForwardDataPacket(sent, bytes);
  ApplyResidual(bytes, residual);
  return ParseForwardDataPacket(bytes);
}

const UplinkFrame* ReceivedUplinkFrame(const UplinkFrame& sent,
                                       const phy::SlotReception& reception,
                                       std::optional<UplinkFrame>& own) {
  OSUMAC_CHECK(reception.outcome == phy::SlotOutcome::kDecoded);
  if (!reception.miscorrected) return &sent;
  own = MiscorrectedUplinkFrame(sent, reception.residual);
  return own.has_value() ? &*own : nullptr;
}

const ForwardDataPacket* ReceiveForwardPacket(const ForwardDataPacket& sent,
                                              const fec::ReedSolomon& code,
                                              phy::SymbolErrorModel& model,
                                              phy::ChannelScratch& scratch,
                                              bool use_erasure_side_info,
                                              std::optional<ForwardDataPacket>& own) {
  std::array<fec::GfElem, kPacketInfoBytes> residual;
  switch (phy::ReceiveWord(code, model, scratch, residual, nullptr, use_erasure_side_info)) {
    case phy::WordFate::kLost:
      return nullptr;
    case phy::WordFate::kIntact:
      return &sent;
    case phy::WordFate::kMiscorrected:
      break;
  }
  own = MiscorrectedForwardPacket(sent, residual);
  return own.has_value() ? &*own : nullptr;
}

}  // namespace osumac::mac
