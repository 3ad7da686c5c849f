#include "phy/channel.h"

#include <algorithm>
#include <functional>

#include "common/check.h"
#include "obs/profiler.h"

namespace osumac::phy {

bool ReceiveBlockInto(std::span<const fec::GfElem> block, const fec::ReedSolomon& code,
                      SymbolErrorModel& model, ChannelScratch& scratch,
                      std::vector<fec::GfElem>& decoded, int* errors_corrected_out,
                      bool use_erasure_side_info) {
  OSUMAC_CHECK_EQ(static_cast<int>(block.size()), code.k());
  scratch.noisy.assign(static_cast<std::size_t>(code.n()), 0);
  scratch.erasures.clear();
  const int hits = use_erasure_side_info
                       ? model.CorruptWithSideInfo(scratch.noisy, &scratch.erasures)
                       : model.Corrupt(scratch.noisy);
  if (hits == 0 && scratch.erasures.empty()) {
    // Untouched word: the codeword we put on the air, so decoding can only
    // succeed with zero corrections.  Neither parity nor decoder is needed.
    decoded.assign(block.begin(), block.end());
    return true;
  }
  scratch.codeword.resize(scratch.noisy.size());
  code.EncodeInto(block, scratch.codeword);
  for (std::size_t i = 0; i < scratch.noisy.size(); ++i) {
    scratch.noisy[i] ^= scratch.codeword[i];
  }
  // Filling f erasures leaves n-k-f budget for unknown errors (2e <=
  // n-k-f).  Using all n-k flags would leave zero redundancy: ANY fill
  // then forms a valid codeword and an unflagged error produces a
  // *silently wrong* decode.  With one parity symbol spared (f <=
  // n-k-1) the post-decode syndrome recheck still detects a bad fill,
  // so long fades degrade into honest failures; beyond that the
  // receiver falls back to errors-only decoding.
  const std::size_t cap = static_cast<std::size_t>(code.n() - code.k() - 1);
  const bool ok =
      scratch.erasures.size() <= cap
          ? code.DecodeWithErasuresInto(scratch.noisy, scratch.erasures, &scratch.decode)
          : code.DecodeInto(scratch.noisy, &scratch.decode);
  if (!ok) return false;
  if (errors_corrected_out != nullptr) {
    *errors_corrected_out += scratch.decode.errors_corrected;
  }
  decoded.assign(scratch.decode.data.begin(), scratch.decode.data.end());
  return true;
}

bool ApplyChannelInto(const std::vector<std::vector<fec::GfElem>>& blocks,
                      const fec::ReedSolomon& code, SymbolErrorModel& model,
                      ChannelScratch& scratch,
                      std::vector<std::vector<fec::GfElem>>& decoded,
                      int* errors_corrected_out, bool use_erasure_side_info) {
  decoded.resize(blocks.size());
  for (std::size_t w = 0; w < blocks.size(); ++w) {
    if (!ReceiveBlockInto(blocks[w], code, model, scratch, decoded[w],
                          errors_corrected_out, use_erasure_side_info)) {
      return false;
    }
  }
  return true;
}

void ReverseChannel::Transmit(CodedBurst burst) { pending_.push_back(std::move(burst)); }

void ReverseChannel::CollectInto(Interval slot, std::vector<CodedBurst>& hits) {
  hits.clear();
  auto it = pending_.begin();
  while (it != pending_.end()) {
    if (it->on_air.Overlaps(slot)) {
      hits.push_back(std::move(*it));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

SlotReception ReverseChannel::ResolveSlot(Interval slot, const fec::ReedSolomon& code,
                                          SymbolErrorModel& model,
                                          bool use_erasure_side_info) {
  return ResolveSlotPerSender(
      slot, code, [&model](int) -> SymbolErrorModel& { return model; },
      use_erasure_side_info);
}

SlotReception ReverseChannel::ResolveSlotPerSender(
    Interval slot, const fec::ReedSolomon& code,
    const std::function<SymbolErrorModel&(int sender)>& model_for,
    bool use_erasure_side_info) {
  ChannelScratch scratch;  // lint: allow-hot-alloc (allocating wrapper; hot paths use ResolveSlotPerSenderInto)
  SlotReception reception;
  ResolveSlotPerSenderInto(slot, code, model_for, scratch, reception,
                           use_erasure_side_info);
  return reception;
}

void ReverseChannel::ResolveSlotPerSenderInto(
    Interval slot, const fec::ReedSolomon& code,
    const std::function<SymbolErrorModel&(int sender)>& model_for,
    ChannelScratch& scratch, SlotReception& out, bool use_erasure_side_info) {
  OSUMAC_PROFILE_ZONE("phy.channel");
  CollectInto(slot, collected_);
  out.outcome = SlotOutcome::kIdle;
  out.info.clear();
  out.sender = -1;
  out.tag = 0;
  out.errors_corrected = 0;
  out.colliders.clear();
  if (collected_.empty()) return;
  if (collected_.size() > 1) {
    // Any mutual overlap destroys everything involved; with slot-aligned
    // transmissions all bursts in one slot overlap pairwise.
    out.outcome = SlotOutcome::kCollision;
    for (const CodedBurst& b : collected_) out.colliders.push_back(b.sender);
    std::sort(out.colliders.begin(), out.colliders.end());
    return;
  }

  const CodedBurst& burst = collected_.front();
  out.sender = burst.sender;
  out.tag = burst.tag;
  int corrected = 0;
  if (!ApplyChannelInto(burst.blocks, code, model_for(burst.sender), scratch,
                        out.info, &corrected, use_erasure_side_info)) {
    out.outcome = SlotOutcome::kDecodeFailure;
    out.info.clear();  // partially decoded blocks are meaningless
    return;
  }
  out.outcome = SlotOutcome::kDecoded;
  out.errors_corrected = corrected;
}

}  // namespace osumac::phy
