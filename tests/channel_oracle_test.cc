// Statistical oracle tests for the skip-sampled error models: each must
// produce the same random process as the per-symbol reference chain in
// per_symbol_channel.h.  Compared per model: the stationary Bad-state
// fraction (read off the erasure flags), hits per symbol, erasures per
// codeword, and the share of codewords RS(64,48) cannot correct without
// side information (> 8 hits) — the corrects-or-fails outcome the MAC sees.
//
// Every statistic is a mean over independent batches, so each comparison
// carries its own standard error; a gap beyond kSigmas combined standard
// errors fails.  Seeds are fixed, so a pass is reproducible.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "per_symbol_channel.h"
#include "phy/error_model.h"

namespace osumac {
namespace {

constexpr int kBatches = 50;
constexpr int kWordsPerBatch = 2000;  // 50 x 2000 x 64 = 6.4 M symbols
constexpr int kWordSymbols = 64;
constexpr int kCorrectableHits = 8;   // t of RS(64,48)
constexpr double kSigmas = 5.0;

/// Mean and standard error of one statistic over the batches.
struct Estimate {
  double mean = 0.0;
  double se = 0.0;
};

Estimate FromBatches(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  const double var = ss / static_cast<double>(xs.size() - 1);
  return {mean, std::sqrt(var / static_cast<double>(xs.size()))};
}

struct ChannelStats {
  Estimate bad_fraction;          ///< erasure-flagged symbols / symbols
  Estimate hits_per_symbol;
  Estimate erasures_per_word;
  Estimate uncorrectable_words;   ///< share of words with > t hits
};

ChannelStats Measure(phy::SymbolErrorModel& model) {
  std::vector<double> bad, hits, erasures_per_word, heavy;
  std::vector<fec::GfElem> word(kWordSymbols);
  std::vector<int> erasures;
  for (int b = 0; b < kBatches; ++b) {
    std::int64_t batch_hits = 0, batch_erasures = 0, batch_heavy = 0;
    for (int w = 0; w < kWordsPerBatch; ++w) {
      word.assign(kWordSymbols, 0);
      erasures.clear();
      const int h = model.CorruptWithSideInfo(word, &erasures);
      batch_hits += h;
      batch_erasures += static_cast<std::int64_t>(erasures.size());
      if (h > kCorrectableHits) ++batch_heavy;
    }
    const double symbols = static_cast<double>(kWordsPerBatch) * kWordSymbols;
    bad.push_back(static_cast<double>(batch_erasures) / symbols);
    hits.push_back(static_cast<double>(batch_hits) / symbols);
    erasures_per_word.push_back(static_cast<double>(batch_erasures) / kWordsPerBatch);
    heavy.push_back(static_cast<double>(batch_heavy) / kWordsPerBatch);
  }
  return {FromBatches(bad), FromBatches(hits), FromBatches(erasures_per_word),
          FromBatches(heavy)};
}

void ExpectAgree(const Estimate& skip, const Estimate& oracle, const std::string& what) {
  const double se = std::sqrt(skip.se * skip.se + oracle.se * oracle.se);
  EXPECT_LE(std::abs(skip.mean - oracle.mean), kSigmas * se + 1e-12)
      << what << ": skip-sampled " << skip.mean << " vs per-symbol " << oracle.mean
      << " (combined standard error " << se << ")";
}

/// Stationary Bad fraction of the per-symbol chain (transition drawn
/// before each symbol).
double StationaryBad(const phy::GilbertElliottModel::Params& p) {
  return p.p_good_to_bad / (p.p_good_to_bad + p.p_bad_to_good);
}

void CheckGilbertElliott(const phy::GilbertElliottModel::Params& p, std::uint64_t seed) {
  phy::GilbertElliottModel skip_model(p, seed);
  oracle::PerSymbolGilbertElliottModel oracle_model(p, seed);
  const ChannelStats skip = Measure(skip_model);
  const ChannelStats ref = Measure(oracle_model);
  ExpectAgree(skip.bad_fraction, ref.bad_fraction, "Bad fraction");
  ExpectAgree(skip.hits_per_symbol, ref.hits_per_symbol, "hits per symbol");
  ExpectAgree(skip.erasures_per_word, ref.erasures_per_word, "erasures per codeword");
  ExpectAgree(skip.uncorrectable_words, ref.uncorrectable_words, "uncorrectable share");

  // Both against the chain's closed form, so a bug shared by the two
  // implementations cannot hide.
  const double pi_bad = StationaryBad(p);
  const double hit_rate = pi_bad * p.error_prob_bad + (1 - pi_bad) * p.error_prob_good;
  for (const ChannelStats* s : {&skip, &ref}) {
    ExpectAgree(s->bad_fraction, {pi_bad, 0.0}, "Bad fraction vs stationary");
    ExpectAgree(s->hits_per_symbol, {hit_rate, 0.0}, "hits per symbol vs stationary");
  }
}

TEST(ChannelOracleTest, GilbertElliottDefaultParams) {
  CheckGilbertElliott(phy::GilbertElliottModel::Params{}, 11);
}

TEST(ChannelOracleTest, GilbertElliottShortFadesAndRecoveries) {
  // Mean Good and Bad runs of ~3 symbols: the regime where a lost or extra
  // Good symbol per event shows up as a large bias.
  CheckGilbertElliott({0.3, 0.3, 0.1, 0.5}, 12);
}

TEST(ChannelOracleTest, GilbertElliottEveryGoodSymbolStartsAFade) {
  // p_good_to_bad = 1: every Good run is exactly the one recovering symbol,
  // so the Bad fraction is 2/3, not 1.
  CheckGilbertElliott({1.0, 0.5, 0.0, 0.0}, 13);
}

TEST(ChannelOracleTest, GilbertElliottGoldenFades) {
  CheckGilbertElliott({0.01, 0.2, 0.001, 0.2}, 14);
}

TEST(ChannelOracleTest, GilbertElliottDenseFadesNoGoodErrors) {
  CheckGilbertElliott({0.01, 0.15, 0.0, 0.9}, 15);
}

TEST(ChannelOracleTest, UniformHitRateMatchesPerSymbolChain) {
  for (const double p : {0.005, 0.01, 0.3}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    phy::UniformErrorModel skip_model(p, 21);
    oracle::PerSymbolUniformModel oracle_model(p, 21);
    const ChannelStats skip = Measure(skip_model);
    const ChannelStats ref = Measure(oracle_model);
    ExpectAgree(skip.hits_per_symbol, ref.hits_per_symbol, "hits per symbol");
    ExpectAgree(skip.uncorrectable_words, ref.uncorrectable_words, "uncorrectable share");
    ExpectAgree(skip.hits_per_symbol, {p, 0.0}, "hits per symbol vs p");
    ExpectAgree(ref.hits_per_symbol, {p, 0.0}, "per-symbol hits vs p");
    EXPECT_EQ(skip.erasures_per_word.mean, 0.0) << "uniform errors carry no side information";
  }
}

}  // namespace
}  // namespace osumac
