// The eager receive path, kept as a test oracle: every frame is serialized,
// every information block encoded, the codeword corrupted in place by the
// receiver's error model, decoded, and the decoded bytes parsed.  The
// simulator never does this: the air carries typed frames and the PHY
// decodes only the error pattern (phy::ReceiveWord), serializing a frame
// only when a word is miscorrected.  Driving this oracle and the typed path
// with same-seed models must give the same outcome, the same frame and the
// same error-model draws (tests/typed_air_test.cc).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "fec/reed_solomon.h"
#include "mac/control_fields.h"
#include "mac/packet.h"
#include "phy/error_model.h"

namespace osumac::oracle {

/// Decodes one block eagerly: encode, corrupt the codeword in place,
/// decode (the erasure cap is the receiver's: at most n-k-1 flags are
/// used, beyond that errors-only decoding).  Returns the decoded
/// information bytes, nullopt on a decoder failure.
inline std::optional<std::vector<fec::GfElem>> EagerReceiveBlock(
    std::span<const fec::GfElem> block, const fec::ReedSolomon& code,
    phy::SymbolErrorModel& model, bool side_info, int* errors_corrected = nullptr) {
  std::vector<fec::GfElem> word = code.Encode(block);
  std::vector<int> erasures;
  if (side_info) {
    model.CorruptWithSideInfo(word, &erasures);
  } else {
    model.Corrupt(word);
  }
  fec::DecodeResult result;
  const bool ok = static_cast<int>(erasures.size()) <= code.n() - code.k() - 1
                      ? code.DecodeWithErasuresInto(word, erasures, &result)
                      : code.DecodeInto(word, &result);
  if (!ok) return std::nullopt;
  if (errors_corrected != nullptr) *errors_corrected += result.errors_corrected;
  return result.data;
}

/// What an eager receiver makes of one transmission: whether every word
/// decoded, and the parse of the decoded bytes (nullopt when they do not
/// parse, or nothing decoded).
template <typename Frame>
struct EagerReception {
  bool decoded = false;
  std::optional<Frame> frame;
};

/// An uplink frame through the eager path (RS(32,9) for a GPS report,
/// RS(64,48) otherwise).
inline EagerReception<mac::UplinkFrame> EagerReceiveUplink(const mac::UplinkFrame& sent,
                                                           phy::SymbolErrorModel& model,
                                                           bool side_info) {
  const bool gps = std::holds_alternative<mac::GpsPacket>(sent);
  const fec::ReedSolomon& code = gps ? fec::ReedSolomon::Osu329() : fec::ReedSolomon::Osu6448();
  std::vector<fec::GfElem> bytes;
  mac::SerializeUplinkFrame(sent, bytes);
  EagerReception<mac::UplinkFrame> out;
  const auto decoded = EagerReceiveBlock(bytes, code, model, side_info);
  if (!decoded.has_value()) return out;
  out.decoded = true;
  out.frame = gps ? std::optional<mac::UplinkFrame>(mac::ParseGpsPacket(*decoded))
                  : mac::ParseUplinkPacket(*decoded);
  return out;
}

/// A forward data packet through the eager path.
inline EagerReception<mac::ForwardDataPacket> EagerReceiveForward(
    const mac::ForwardDataPacket& sent, phy::SymbolErrorModel& model, bool side_info) {
  EagerReception<mac::ForwardDataPacket> out;
  const auto decoded = EagerReceiveBlock(mac::SerializeForwardDataPacket(sent),
                                         fec::ReedSolomon::Osu6448(), model, side_info);
  if (!decoded.has_value()) return out;
  out.decoded = true;
  out.frame = mac::ParseForwardDataPacket(*decoded);
  return out;
}

/// A control-field set through the eager path: word 2 is received only if
/// word 1 decoded.
inline EagerReception<mac::ControlFields> EagerReceiveControlFields(
    const mac::ControlFields& sent, phy::SymbolErrorModel& model, bool side_info) {
  const mac::ControlFieldBlocks blocks = mac::SerializeControlFields(sent);
  EagerReception<mac::ControlFields> out;
  std::array<std::vector<fec::GfElem>, 2> decoded;
  for (std::size_t w = 0; w < 2; ++w) {
    auto word = EagerReceiveBlock(blocks[w], fec::ReedSolomon::Osu6448(), model, side_info);
    if (!word.has_value()) return out;
    decoded[w] = std::move(*word);
  }
  out.decoded = true;
  out.frame = mac::ParseControlFields(decoded[0], decoded[1]);
  return out;
}

}  // namespace osumac::oracle
