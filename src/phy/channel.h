// Channel models.
//
// Reverse channel: many mobiles, one receiver (the base station).  Any two
// temporally overlapping transmissions collide and all involved bursts are
// lost (Section 2.2: "only one station/subscriber can transmit on a channel;
// otherwise collision occurs").  The base station distinguishes an idle slot
// from a collision (energy detected but nothing decodable), which it needs
// for dynamic contention-slot adjustment (Section 3.5).
//
// Forward channel: broadcast from the base station; no collisions are
// possible (single transmitter), but each mobile sees an independent fading
// path, so delivery is evaluated per listener with that listener's error
// model.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/time.h"
#include "fec/reed_solomon.h"
#include "phy/error_model.h"

namespace osumac::phy {

/// A coded burst put on the air by one transmitter.
struct CodedBurst {
  Interval on_air;  ///< full airtime including preamble/postamble/guard
  std::vector<std::vector<fec::GfElem>> blocks;  ///< k-byte RS information blocks
  int sender = -1;      ///< node index (diagnostics / error-model lookup)
  std::uint64_t tag = 0;  ///< opaque MAC bookkeeping id
};

/// What the base station observed in one reverse slot.
enum class SlotOutcome {
  kIdle,           ///< no energy in the slot
  kCollision,      ///< overlapping transmissions; nothing decodable
  kDecodeFailure,  ///< single transmission but RS decoding failed
  kDecoded,        ///< single transmission, successfully decoded
};

/// Result of resolving one reverse slot at the base station.
struct SlotReception {
  SlotOutcome outcome = SlotOutcome::kIdle;
  /// Decoded information bytes, one entry per codeword (kDecoded only).
  std::vector<std::vector<fec::GfElem>> info;
  int sender = -1;
  std::uint64_t tag = 0;
  int errors_corrected = 0;
  /// Senders involved in a collision (diagnostics).
  std::vector<int> colliders;
};

/// Reusable per-receiver scratch for ReceiveBlockInto / ResolveSlot*: the noisy
/// word, a touched block's codeword, the erasure list and the decode result,
/// so steady-state slot resolution costs zero heap allocations (buffers reach
/// their high-water capacity within the first few slots and stay there).
struct ChannelScratch {
  std::vector<fec::GfElem> noisy;
  std::vector<fec::GfElem> codeword;
  std::vector<int> erasures;
  fec::DecodeResult decode;
};

/// Sends one k-byte information block (checked always) through `model` and
/// the RS decoder of `code`; writes the decoded block into `decoded` and
/// returns false if the word fails to decode.  `errors_corrected_out`, if
/// non-null, accumulates corrected symbol counts.  `use_erasure_side_info`
/// feeds the model's erasure flags to the decoder (cf. the paper's [2]).
/// Parity on demand: the model corrupts an all-zero word, giving the error
/// pattern e (SymbolErrorModel's XOR contract); only a touched word (e != 0
/// or erasures) is encoded to c and c ^ e decoded, exactly what an eagerly
/// encoded word would have become.  An untouched word, by far the common
/// case, is the sent block: no encode, no decode.
bool ReceiveBlockInto(std::span<const fec::GfElem> block, const fec::ReedSolomon& code,
                      SymbolErrorModel& model, ChannelScratch& scratch,
                      std::vector<fec::GfElem>& decoded,
                      int* errors_corrected_out = nullptr,
                      bool use_erasure_side_info = false);

/// ReceiveBlockInto over `blocks` in order into `decoded` (resized; inner
/// vectors keep their capacity).  Returns false at the first block that
/// fails to decode; later blocks never reach the model.
bool ApplyChannelInto(const std::vector<std::vector<fec::GfElem>>& blocks,
                      const fec::ReedSolomon& code, SymbolErrorModel& model,
                      ChannelScratch& scratch,
                      std::vector<std::vector<fec::GfElem>>& decoded,
                      int* errors_corrected_out = nullptr,
                      bool use_erasure_side_info = false);

/// Collision-detecting multiple-access reverse channel.
class ReverseChannel {
 public:
  /// Puts a burst on the air.  Bursts may be registered in any order.
  void Transmit(CodedBurst burst);

  /// Collects (and removes) every pending burst overlapping `slot`, then
  /// classifies the slot: idle, collision (>= 2 mutually overlapping
  /// bursts), or a single burst to be decoded with `code` through `model`.
  SlotReception ResolveSlot(Interval slot, const fec::ReedSolomon& code,
                            SymbolErrorModel& model,
                            bool use_erasure_side_info = false);

  /// Like ResolveSlot but the caller supplies a per-sender error model via
  /// callback (different mobiles see different uplink paths).
  SlotReception ResolveSlotPerSender(
      Interval slot, const fec::ReedSolomon& code,
      const std::function<SymbolErrorModel&(int sender)>& model_for,
      bool use_erasure_side_info = false);

  /// Allocation-reusing ResolveSlotPerSender: resolves into `out`, reusing
  /// its vectors' capacity (the caller keeps one SlotReception alive across
  /// slots).  Same classification and decode semantics.
  void ResolveSlotPerSenderInto(
      Interval slot, const fec::ReedSolomon& code,
      const std::function<SymbolErrorModel&(int sender)>& model_for,
      ChannelScratch& scratch, SlotReception& out,
      bool use_erasure_side_info = false);

  /// Number of bursts not yet resolved (should be 0 at cycle boundaries in
  /// a well-formed run; lingering bursts indicate a scheduling bug).
  std::size_t pending_bursts() const { return pending_.size(); }

  /// Bursts not yet resolved, for auditing (see analysis/protocol_auditor).
  const std::vector<CodedBurst>& pending() const { return pending_; }

 private:
  /// Moves overlapping bursts into `hits` (cleared first, capacity reused).
  void CollectInto(Interval slot, std::vector<CodedBurst>& hits);

  std::vector<CodedBurst> pending_;
  /// Scratch for ResolveSlotPerSenderInto: reused across slots so slot
  /// resolution does not allocate a fresh burst vector per slot.
  std::vector<CodedBurst> collected_;
};

}  // namespace osumac::phy
