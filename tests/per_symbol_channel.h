// Per-symbol reference error models: one Bernoulli draw per coded byte
// (two per byte for Gilbert-Elliott, whose state moves before each
// symbol).  The simulator's skip-sampled models in phy/error_model.h are
// meant to be the same random processes; these straightforward chains are
// the oracle the statistics tests hold them to, and bench_hotpaths times
// the uniform one as the per-symbol baseline of the skip-sampling gate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "phy/error_model.h"

namespace osumac::oracle {

namespace per_symbol_detail {
/// Replaces one byte with a uniformly random *different* value.
inline void FlipByte(fec::GfElem& b, Rng& rng) {
  const auto delta = static_cast<fec::GfElem>(rng.UniformInt(1, 255));
  b = static_cast<fec::GfElem>(b ^ delta);
}
}  // namespace per_symbol_detail

/// Independent symbol errors: one Bernoulli(p) per coded byte.
class PerSymbolUniformModel final : public phy::SymbolErrorModel {
 public:
  PerSymbolUniformModel(double symbol_error_prob, std::uint64_t seed)
      : p_(symbol_error_prob), rng_(seed) {
    OSUMAC_CHECK(p_ >= 0.0 && p_ <= 1.0);
  }

  int Corrupt(std::span<fec::GfElem> codeword) override {
    int hits = 0;
    for (fec::GfElem& b : codeword) {
      if (rng_.Bernoulli(p_)) {
        per_symbol_detail::FlipByte(b, rng_);
        ++hits;
      }
    }
    return hits;
  }

 private:
  double p_;
  Rng rng_;
};

/// Gilbert-Elliott chain walked symbol by symbol: the state transition is
/// drawn first, then the symbol's error at the new state's probability;
/// every Bad-state symbol is reported as an erasure.
class PerSymbolGilbertElliottModel final : public phy::SymbolErrorModel {
 public:
  PerSymbolGilbertElliottModel(const phy::GilbertElliottModel::Params& params,
                               std::uint64_t seed)
      : params_(params), rng_(seed) {
    OSUMAC_CHECK(params_.p_good_to_bad >= 0 && params_.p_good_to_bad <= 1);
    OSUMAC_CHECK(params_.p_bad_to_good >= 0 && params_.p_bad_to_good <= 1);
  }

  int Corrupt(std::span<fec::GfElem> codeword) override {
    return CorruptWithSideInfo(codeword, nullptr);
  }

  int CorruptWithSideInfo(std::span<fec::GfElem> codeword,
                          std::vector<int>* erasures) override {
    int hits = 0;
    for (std::size_t i = 0; i < codeword.size(); ++i) {
      if (bad_) {
        if (rng_.Bernoulli(params_.p_bad_to_good)) bad_ = false;
      } else {
        if (rng_.Bernoulli(params_.p_good_to_bad)) bad_ = true;
      }
      if (bad_ && erasures != nullptr) erasures->push_back(static_cast<int>(i));
      const double p = bad_ ? params_.error_prob_bad : params_.error_prob_good;
      if (rng_.Bernoulli(p)) {
        per_symbol_detail::FlipByte(codeword[i], rng_);
        ++hits;
      }
    }
    return hits;
  }

 private:
  phy::GilbertElliottModel::Params params_;
  Rng rng_;
  bool bad_ = false;
};

}  // namespace osumac::oracle
