// Packet formats on both channels.
//
// Regular packets are one RS(64,48) codeword: 48 information bytes, of
// which 4 carry the in-band MAC header (Section 3.1: "all the control
// information sent uplink is either carried in the header of data packets
// or included in regular data packets") and 44 carry payload.  GPS packets
// are 72 information bits (9 bytes) coded into 32 bytes (modeled as
// shortened RS(32,9); see DESIGN.md).
//
// Beyond the paper's three uplink kinds (data / reservation /
// registration) this implementation adds two optional ones:
//   kDeregistration — in-band sign-off (the paper mentions sign-off but
//                     not its mechanism),
//   kForwardAck     — selective acknowledgment of forward-channel packets,
//                     used only when MacConfig::downlink_arq is enabled
//                     (the paper leaves the forward channel unacknowledged
//                     to save reverse bandwidth; the ablation bench
//                     quantifies that trade).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "fec/gf256.h"
#include "mac/ids.h"
#include "phy/channel.h"

namespace osumac::mac {

/// Information bytes per regular packet (RS(64,48) payload).
inline constexpr int kPacketInfoBytes = 48;
/// In-band MAC header size within a regular packet.
inline constexpr int kPacketHeaderBytes = 4;
/// User payload capacity of one regular data packet.
inline constexpr int kPacketPayloadBytes = kPacketInfoBytes - kPacketHeaderBytes;  // 44

/// Kind discriminator carried in the header's top bits.
enum class PacketKind : std::uint8_t {
  kData = 0,           ///< data fragment (granted slot or contention slot)
  kReservation = 1,    ///< explicit slot reservation request
  kRegistration = 2,   ///< registration request from an unregistered mobile
  kDeregistration = 3, ///< in-band sign-off
  kForwardAck = 4,     ///< downlink ARQ acknowledgments (extension)
};

/// Header of a regular uplink packet.
///
/// Wire layout (4 bytes = 32 bits, MSB first):
///   kind:3  src:6  seq:11  more_slots:5  frag_index:7
/// `more_slots` is the implicit-reservation field of Section 3.1: the
/// number of additional reverse data slots the subscriber wants next cycle.
struct PacketHeader {
  PacketKind kind = PacketKind::kData;
  UserId src = kNoUser;
  std::uint16_t seq = 0;       ///< per-subscriber packet sequence (11 bits)
  std::uint8_t more_slots = 0; ///< piggybacked demand, 0..31
  std::uint8_t frag_index = 0; ///< fragment index within the message (7 bits)
  friend bool operator==(const PacketHeader&, const PacketHeader&) = default;
};

/// A regular uplink data packet: header + payload fragment of a message.
struct DataPacket {
  PacketHeader header;
  /// Destination EIN for subscriber-to-subscriber messages; 0 means the
  /// message terminates at the infrastructure (plain uplink).
  Ein dest_ein = 0;
  std::uint32_t message_id = 0;  ///< carried in the first payload bytes
  std::uint8_t frag_count = 0;   ///< total fragments of the message
  std::uint16_t payload_bytes = 0;  ///< fragment length (<= kPacketPayloadBytes)
  // The payload body itself is a synthetic fill pattern; only its length
  // matters to the MAC and the metrics.
  friend bool operator==(const DataPacket&, const DataPacket&) = default;
};

/// Explicit reservation request (sent in a contention slot).
struct ReservationPacket {
  UserId src = kNoUser;
  std::uint8_t slots_requested = 0;
  friend bool operator==(const ReservationPacket&, const ReservationPacket&) = default;
};

/// Registration request (sent in a contention slot by an unregistered unit).
struct RegistrationPacket {
  Ein ein = 0;
  bool wants_gps = false;
  friend bool operator==(const RegistrationPacket&, const RegistrationPacket&) = default;
};

/// In-band sign-off.  Idempotent: the EIN confirms the identity even if
/// the base station already released the user ID.
struct DeregistrationPacket {
  UserId src = kNoUser;
  Ein ein = 0;
  friend bool operator==(const DeregistrationPacket&, const DeregistrationPacket&) = default;
};

/// One forward-packet acknowledgment.
struct ForwardAckEntry {
  std::uint16_t message_id_low = 0;  ///< low 16 bits of the message id
  std::uint8_t frag_index = 0;
  friend bool operator==(const ForwardAckEntry&, const ForwardAckEntry&) = default;
};

/// Maximum acknowledgments per kForwardAck packet.
inline constexpr int kMaxForwardAcks = 10;

/// Selective downlink acknowledgment packet (extension; downlink_arq).
struct ForwardAckPacket {
  PacketHeader header;  ///< kind = kForwardAck; more_slots usable
  int count = 0;
  std::array<ForwardAckEntry, kMaxForwardAcks> acks{};
  friend bool operator==(const ForwardAckPacket&, const ForwardAckPacket&) = default;
};

/// GPS location report: 72 information bits.
/// Wire layout: ein:16  latitude:24  longitude:24  timestamp:8 (cycle LSBs).
struct GpsPacket {
  Ein ein = 0;
  std::uint32_t latitude = 0;   ///< quantized position (24 bits)
  std::uint32_t longitude = 0;  ///< quantized position (24 bits)
  std::uint8_t timestamp = 0;
  friend bool operator==(const GpsPacket&, const GpsPacket&) = default;
};

/// Downlink data packet (forward channel).
struct ForwardDataPacket {
  UserId dest = kNoUser;
  std::uint32_t message_id = 0;
  std::uint8_t frag_index = 0;
  std::uint8_t frag_count = 0;
  std::uint16_t payload_bytes = 0;
  friend bool operator==(const ForwardDataPacket&, const ForwardDataPacket&) = default;
};

/// Any uplink frame, as a subscriber puts it on the air and the base
/// station acts on it: the five regular packet kinds (one RS(64,48) block)
/// and the GPS report (one RS(32,9) block).  Frames are built at wire
/// widths (seq 11 bits, more_slots 5, frag_index 7, user IDs 6, GPS
/// coordinates 24), so parsing a frame's serialized bytes gives the frame
/// back: a receiver whose words arrive intact acts on the sender's frame
/// itself, and only a miscorrected word goes through the bytes.
using UplinkFrame = std::variant<DataPacket, ReservationPacket, RegistrationPacket,
                                 DeregistrationPacket, ForwardAckPacket, GpsPacket>;

// --- serialization ---------------------------------------------------------
// Regular packets serialize to exactly kPacketInfoBytes (one RS(64,48)
// information block); GPS packets to 9 bytes (one RS(32,9) block).

// Each serializer writes into `out`, resizing it to the block size; a
// buffer reused across calls keeps its capacity, so steady-state
// serialization allocates nothing.  The single-argument forms return a
// fresh block.

/// Serializes an uplink data packet into a 48-byte info block.
void SerializeDataPacket(const DataPacket& p, std::vector<fec::GfElem>& out);
std::vector<fec::GfElem> SerializeDataPacket(const DataPacket& p);
/// Serializes a reservation packet.
void SerializeReservationPacket(const ReservationPacket& p,
                                std::vector<fec::GfElem>& out);
std::vector<fec::GfElem> SerializeReservationPacket(const ReservationPacket& p);
/// Serializes a registration packet.
void SerializeRegistrationPacket(const RegistrationPacket& p,
                                 std::vector<fec::GfElem>& out);
std::vector<fec::GfElem> SerializeRegistrationPacket(const RegistrationPacket& p);
/// Serializes a deregistration packet.
void SerializeDeregistrationPacket(const DeregistrationPacket& p,
                                   std::vector<fec::GfElem>& out);
std::vector<fec::GfElem> SerializeDeregistrationPacket(const DeregistrationPacket& p);
/// Serializes a forward-ACK packet.
void SerializeForwardAckPacket(const ForwardAckPacket& p, std::vector<fec::GfElem>& out);
std::vector<fec::GfElem> SerializeForwardAckPacket(const ForwardAckPacket& p);
/// Serializes a GPS report into a 9-byte info block.
void SerializeGpsPacket(const GpsPacket& p, std::vector<fec::GfElem>& out);
std::vector<fec::GfElem> SerializeGpsPacket(const GpsPacket& p);
/// Serializes a forward data packet into a 48-byte info block.
void SerializeForwardDataPacket(const ForwardDataPacket& p,
                                 std::vector<fec::GfElem>& out);
std::vector<fec::GfElem> SerializeForwardDataPacket(const ForwardDataPacket& p);

/// Serializes any uplink frame: a GPS report into its 9-byte block, every
/// other kind into a 48-byte block.
void SerializeUplinkFrame(const UplinkFrame& frame, std::vector<fec::GfElem>& out);

/// Parses an uplink info block (48 bytes) into one of the five regular
/// packet kinds.  Returns nullopt on a malformed block (e.g. unknown kind)
/// — treated as a packet loss by the caller.
std::optional<UplinkFrame> ParseUplinkPacket(std::span<const fec::GfElem> info);
/// Parses a GPS info block (9 bytes).
std::optional<GpsPacket> ParseGpsPacket(std::span<const fec::GfElem> info);
/// Parses a forward data packet info block.
std::optional<ForwardDataPacket> ParseForwardDataPacket(std::span<const fec::GfElem> info);

/// What a receiver holds when RS decoding miscorrected the word carrying
/// `sent`: the sent bytes XOR the information residual (phy::ReceiveWord),
/// parsed with the sent frame's block format.  nullopt when those bytes do
/// not parse.  Only this rare path serializes an uplink or forward frame.
std::optional<UplinkFrame> MiscorrectedUplinkFrame(const UplinkFrame& sent,
                                                   std::span<const fec::GfElem> residual);
std::optional<ForwardDataPacket> MiscorrectedForwardPacket(
    const ForwardDataPacket& sent, std::span<const fec::GfElem> residual);

/// The frame the receiver of a decoded reverse slot holds, `sent` being the
/// frame of the burst it decoded: `&sent` when every word arrived intact,
/// the parse of the miscorrected bytes (kept in `own`) otherwise, nullptr
/// when those do not parse.  Requires reception.outcome == kDecoded.
const UplinkFrame* ReceivedUplinkFrame(const UplinkFrame& sent,
                                       const phy::SlotReception& reception,
                                       std::optional<UplinkFrame>& own);

/// The forward packet a receiver gets after `sent` crossed its downlink
/// `model` (one RS(64,48) word; see phy::ReceiveWord): `&sent` when the word
/// arrives intact, the parse of the miscorrected bytes (kept in `own`)
/// otherwise, nullptr when the word is lost or those bytes do not parse.
const ForwardDataPacket* ReceiveForwardPacket(const ForwardDataPacket& sent,
                                              const fec::ReedSolomon& code,
                                              phy::SymbolErrorModel& model,
                                              phy::ChannelScratch& scratch,
                                              bool use_erasure_side_info,
                                              std::optional<ForwardDataPacket>& own);

}  // namespace osumac::mac
