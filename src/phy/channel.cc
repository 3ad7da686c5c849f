#include "phy/channel.h"

#include <algorithm>
#include <functional>

#include "common/check.h"
#include "obs/profiler.h"

namespace osumac::phy {

WordFate ReceiveWord(const fec::ReedSolomon& code, SymbolErrorModel& model,
                     ChannelScratch& scratch, std::span<fec::GfElem> residual,
                     int* errors_corrected_out, bool use_erasure_side_info) {
  OSUMAC_CHECK_EQ(static_cast<int>(residual.size()), code.k());
  scratch.noisy.assign(static_cast<std::size_t>(code.n()), 0);
  scratch.erasures.clear();
  const int hits = use_erasure_side_info
                       ? model.CorruptWithSideInfo(scratch.noisy, &scratch.erasures)
                       : model.Corrupt(scratch.noisy);
  if (hits == 0 && scratch.erasures.empty()) {
    // Untouched word: the codeword we put on the air, so decoding can only
    // succeed with zero corrections.  No decoder is needed.
    std::fill(residual.begin(), residual.end(), fec::GfElem{0});
    return WordFate::kIntact;
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
  if (!ok) return WordFate::kLost;
  if (errors_corrected_out != nullptr) {
    *errors_corrected_out += scratch.decode.errors_corrected;
  }
  // decode(e) is the zero codeword exactly when e was corrected away; any
  // other codeword of a systematic code has a nonzero information part.
  fec::GfElem any = 0;
  for (std::size_t i = 0; i < residual.size(); ++i) {
    residual[i] = scratch.decode.data[i];
    any |= residual[i];
  }
  return any == 0 ? WordFate::kIntact : WordFate::kMiscorrected;
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

void ReverseChannel::ResolveSlotPerSenderInto(
    Interval slot, const fec::ReedSolomon& code,
    const std::function<SymbolErrorModel&(int sender)>& model_for,
    ChannelScratch& scratch, SlotReception& out, bool use_erasure_side_info) {
  OSUMAC_PROFILE_ZONE("phy.channel");
  CollectInto(slot, collected_);
  out.outcome = SlotOutcome::kIdle;
  out.residual.clear();
  out.miscorrected = false;
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
  const std::size_t k = static_cast<std::size_t>(code.k());
  out.residual.resize(static_cast<std::size_t>(burst.words) * k);
  SymbolErrorModel& model = model_for(burst.sender);
  int corrected = 0;
  for (std::size_t w = 0; w < static_cast<std::size_t>(burst.words); ++w) {
    const WordFate fate =
        ReceiveWord(code, model, scratch, std::span(out.residual).subspan(w * k, k),
                    &corrected, use_erasure_side_info);
    if (fate == WordFate::kLost) {
      out.outcome = SlotOutcome::kDecodeFailure;
      out.residual.clear();  // residuals of earlier words are meaningless
      out.miscorrected = false;
      return;
    }
    if (fate == WordFate::kMiscorrected) out.miscorrected = true;
  }
  out.outcome = SlotOutcome::kDecoded;
  out.errors_corrected = corrected;
}

}  // namespace osumac::phy
