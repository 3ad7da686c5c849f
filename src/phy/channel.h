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
#include <span>
#include <vector>

#include "common/time.h"
#include "fec/reed_solomon.h"
#include "phy/error_model.h"

namespace osumac::phy {

/// A coded burst put on the air by one transmitter.  The channel never sees
/// the information it carries: the PHY works on error patterns only, and
/// the sender keeps its frame (a MAC-side table keyed by `tag`).
struct CodedBurst {
  Interval on_air;  ///< full airtime including preamble/postamble/guard
  int words = 1;    ///< RS codewords in the burst
  int sender = -1;  ///< node index (diagnostics / error-model lookup)
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
  /// kDecoded only: each word's k-byte information residual, back to back
  /// (see ReceiveWord).  The receiver holds the sent information XOR this;
  /// all zero unless `miscorrected`.
  std::vector<fec::GfElem> residual;
  /// kDecoded only: some word decoded to a codeword other than the one sent.
  bool miscorrected = false;
  int sender = -1;
  std::uint64_t tag = 0;
  int errors_corrected = 0;
  /// Senders involved in a collision (diagnostics).
  std::vector<int> colliders;
};

/// Reusable per-receiver scratch for ReceiveWord / ResolveSlotPerSenderInto:
/// the error pattern, the erasure list and the decode result, so
/// steady-state reception costs zero heap allocations (buffers reach their
/// high-water capacity within the first few words and stay there).
struct ChannelScratch {
  std::vector<fec::GfElem> noisy;
  std::vector<int> erasures;
  fec::DecodeResult decode;
};

/// What became of one RS word on its way through a channel.
enum class WordFate {
  kLost,          ///< the decoder failed: the receiver knows the word is gone
  kIntact,        ///< decoded to the codeword that was sent (residual 0)
  kMiscorrected,  ///< decoded to another codeword (residual != 0)
};

/// Receives one word of `code` through `model` by decoding the error
/// pattern, not the word.  The model corrupts an all-zero word, giving the
/// pattern e (SymbolErrorModel's XOR contract).  RS decoding is linear:
/// decoding c ^ e succeeds exactly when decoding e does, with the same
/// corrections, and yields c's information XOR the information part of
/// decode(e).  So no word is ever encoded: an untouched word (e = 0, no
/// erasures) is kIntact without a decode, a touched one decodes e alone.
/// Writes that information residual (k bytes, all zero unless
/// kMiscorrected) into `residual`, which must hold exactly k bytes
/// (checked always); it is unspecified after kLost.  `errors_corrected_out`,
/// if non-null, accumulates corrected symbol counts.
/// `use_erasure_side_info` feeds the model's erasure flags to the decoder
/// (cf. the paper's [2]).
WordFate ReceiveWord(const fec::ReedSolomon& code, SymbolErrorModel& model,
                     ChannelScratch& scratch, std::span<fec::GfElem> residual,
                     int* errors_corrected_out = nullptr,
                     bool use_erasure_side_info = false);

/// Collision-detecting multiple-access reverse channel.
class ReverseChannel {
 public:
  /// Puts a burst on the air.  Bursts may be registered in any order.
  void Transmit(CodedBurst burst);

  /// Collects (and removes) every pending burst overlapping `slot`, then
  /// classifies the slot into `out`, reusing its vectors' capacity (the
  /// caller keeps one SlotReception alive across slots): idle, collision
  /// (>= 2 mutually overlapping bursts), or a single burst whose words are
  /// received (ReceiveWord) with `code` through the sender's model from
  /// `model_for`.  The burst fails at its first lost word; later words
  /// never reach the model.
  void ResolveSlotPerSenderInto(
      Interval slot, const fec::ReedSolomon& code,
      const std::function<SymbolErrorModel&(int sender)>& model_for,
      ChannelScratch& scratch, SlotReception& out,
      bool use_erasure_side_info = false);

  /// The bursts the last ResolveSlotPerSenderInto took off the air, in
  /// transmit order; valid until the next resolution.  A sender that keeps
  /// per-burst state by tag releases it here, whatever the outcome.
  const std::vector<CodedBurst>& resolved() const { return collected_; }

  /// Number of bursts not yet resolved (should be 0 at cycle boundaries in
  /// a well-formed run; lingering bursts indicate a scheduling bug).
  std::size_t pending_bursts() const { return pending_.size(); }

  /// Bursts not yet resolved, for auditing (see analysis/protocol_auditor).
  const std::vector<CodedBurst>& pending() const { return pending_; }

 private:
  /// Moves overlapping bursts into `hits` (cleared first, capacity reused).
  void CollectInto(Interval slot, std::vector<CodedBurst>& hits);

  std::vector<CodedBurst> pending_;
  /// The bursts of the last resolved slot (see resolved()): reused across
  /// slots so slot resolution does not allocate a fresh burst vector.
  std::vector<CodedBurst> collected_;
};

}  // namespace osumac::phy
