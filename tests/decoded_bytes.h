// A decoded reverse slot fed from raw bytes.  The base station acts on
// typed uplink frames; a test that holds bytes (hand-built packets,
// fuzz input) parses them first, the way the cell's receiver parses a
// miscorrected word, and hands the base station the result.
#pragma once

#include <optional>
#include <span>

#include "mac/base_station.h"
#include "mac/packet.h"
#include "phy/channel.h"

namespace osumac::mac {

/// A kDecoded reception of the information block `info`: 48 bytes parse
/// as a regular packet, 9 bytes as a GPS report, and bytes that do not
/// parse arrive as a null frame.  Converts to the UplinkReception the base
/// station takes; the frame lives as long as this object (a temporary
/// lasts to the end of the call it is passed to).
class DecodedBytes {
 public:
  explicit DecodedBytes(std::span<const fec::GfElem> info)
      : frame_(info.size() == 9 ? std::optional<UplinkFrame>(ParseGpsPacket(info))
                                : ParseUplinkPacket(info)) {}

  operator UplinkReception() const {  // NOLINT(google-explicit-constructor)
    UplinkReception r;
    r.outcome = phy::SlotOutcome::kDecoded;
    r.frame = frame_.has_value() ? &*frame_ : nullptr;
    return r;
  }

 private:
  std::optional<UplinkFrame> frame_;
};

}  // namespace osumac::mac
