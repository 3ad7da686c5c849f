#include "phy/error_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace osumac::phy {

namespace {
/// Replaces one byte with a uniformly random *different* value (modulo
/// bias across 2^64 draws is ~2^-56 — far below anything the sweeps can
/// resolve).
void FlipByte(fec::GfElem& b, SplitMix64Rng& stream) {
  const auto delta = static_cast<fec::GfElem>(1 + stream.Next() % 255);
  b = static_cast<fec::GfElem>(b ^ delta);
}

/// Geometric "failures before first success" via inversion:
/// floor(log(U) / log(1-p)) with U uniform on (0, 1).
std::uint64_t GeometricGap(SplitMix64Rng& stream, double inv_log_q) {
  const double g = std::floor(std::log(stream.NextOpenDouble()) * inv_log_q);
  if (g >= static_cast<double>(std::numeric_limits<std::uint64_t>::max())) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return static_cast<std::uint64_t>(g);
}
}  // namespace

UniformErrorModel::UniformErrorModel(double symbol_error_prob, std::uint64_t seed)
    : p_(symbol_error_prob), stream_(seed) {
  OSUMAC_CHECK(p_ >= 0.0 && p_ <= 1.0);
  if (p_ > 0.0 && p_ < 1.0) {
    inv_log_q_ = 1.0 / std::log1p(-p_);
    skip_ = GeometricGap(stream_, inv_log_q_);
  }
}

int UniformErrorModel::Corrupt(std::span<fec::GfElem> codeword) {
  if (p_ <= 0.0) return 0;
  if (p_ >= 1.0) {
    for (fec::GfElem& b : codeword) FlipByte(b, stream_);
    return static_cast<int>(codeword.size());
  }
  int hits = 0;
  std::uint64_t i = skip_;
  while (i < codeword.size()) {
    FlipByte(codeword[i], stream_);
    ++hits;
    i += 1 + GeometricGap(stream_, inv_log_q_);
  }
  skip_ = i - codeword.size();
  return hits;
}

GilbertElliottModel::GilbertElliottModel(const Params& params, std::uint64_t seed)
    : params_(params), stream_(seed) {
  OSUMAC_CHECK(params_.p_good_to_bad >= 0 && params_.p_good_to_bad <= 1);
  OSUMAC_CHECK(params_.p_bad_to_good >= 0 && params_.p_bad_to_good <= 1);
  good_trans_skip_ = Gap(params_.p_good_to_bad);
  good_err_skip_ = Gap(params_.error_prob_good);
}

std::uint64_t GilbertElliottModel::Gap(double p) {
  if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
  if (p >= 1.0) return 0;
  return GeometricGap(stream_, 1.0 / std::log1p(-p));
}

int GilbertElliottModel::Corrupt(std::span<fec::GfElem> codeword) {
  return CorruptWithSideInfo(codeword, nullptr);
}

int GilbertElliottModel::CorruptWithSideInfo(std::span<fec::GfElem> codeword,
                                             std::vector<int>* erasures) {
  int hits = 0;
  std::uint64_t i = 0;
  const std::uint64_t n = codeword.size();
  while (i < n) {
    if (!bad_) {
      // Skip ahead to whichever Good-state event lands first.  Both skips
      // count symbols from i.  A fade start at the same symbol as an error
      // wins, mirroring the per-symbol transition-before-error ordering.
      const std::uint64_t next = std::min(good_trans_skip_, good_err_skip_);
      if (next >= n - i) {
        const std::uint64_t consumed = n - i;
        good_trans_skip_ -= consumed;
        good_err_skip_ -= consumed;
        break;
      }
      good_trans_skip_ -= next;
      good_err_skip_ -= next;
      i += next;
      if (good_trans_skip_ == 0) {
        bad_ = true;  // symbol i is the first faded symbol
        continue;
      }
      FlipByte(codeword[i], stream_);
      ++hits;
      ++i;
      --good_trans_skip_;  // symbol i was a Good symbol too
      good_err_skip_ = Gap(params_.error_prob_good);  // gap from the next symbol
    } else {
      // Fade: walk per symbol — every one is erasure-flagged regardless of
      // corruption, so there is no skipping to be had.
      if (erasures != nullptr) erasures->push_back(static_cast<int>(i));
      if (stream_.NextOpenDouble() < params_.error_prob_bad) {
        FlipByte(codeword[i], stream_);
        ++hits;
      }
      ++i;
      if (stream_.NextOpenDouble() < params_.p_bad_to_good) {
        // The recovering symbol is always Good (the per-symbol chain checks
        // the transition before the symbol), so the next fade is at least
        // one symbol away.
        bad_ = false;
        const std::uint64_t gap = Gap(params_.p_good_to_bad);
        good_trans_skip_ = gap < std::numeric_limits<std::uint64_t>::max() ? gap + 1 : gap;
        good_err_skip_ = Gap(params_.error_prob_good);
      }
    }
  }
  return hits;
}

}  // namespace osumac::phy
