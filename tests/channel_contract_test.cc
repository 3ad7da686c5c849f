// Pins the contract the typed-frame receive path rests on.  The channel
// decodes the error pattern, not the word: each error model is asked for
// the pattern e by corrupting an all-zero word, and only a touched word has
// e decoded (phy::ReceiveWord); the receiver holds the sent information XOR
// the information part of decode(e).  That is exact only if every model
// corrupts by XOR-ing data-independent deltas (SymbolErrorModel's XOR
// contract) and RS decoding is linear.  For each model, two same-seed
// copies are run side by side:
//
//   * one corrupts zeros, the other a random codeword: the hit counts and
//     erasure lists must agree and the codeword must change by exactly the
//     pattern the zeros picked up;
//   * one feeds phy::ReceiveWord, the other the eager oracle
//     (tests/eager_air.h: encode every word, corrupt it in place, decode
//     it): the outcome, the received bytes and errors_corrected must agree.
//
// Words go out two per call (like a control-field set), so the comparison
// also pins that a lost first word stops the second one from drawing.
// RsLinearityTest pins the decoder's linearity itself on random patterns
// up to and past capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eager_air.h"
#include "fec/reed_solomon.h"
#include "phy/channel.h"
#include "phy/error_model.h"

namespace osumac {
namespace {

constexpr int kWords = 10000;
constexpr int kBlocksPerCall = 2;

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<phy::SymbolErrorModel>(std::uint64_t seed)> make;
  bool side_info = false;
  bool touches = true;  ///< false only for the perfect channel
};

std::function<std::unique_ptr<phy::SymbolErrorModel>(std::uint64_t)> Uniform(double p) {
  return [p](std::uint64_t seed) {
    return std::make_unique<phy::UniformErrorModel>(p, seed);
  };
}

std::function<std::unique_ptr<phy::SymbolErrorModel>(std::uint64_t)> Ge(
    const phy::GilbertElliottModel::Params& params) {
  return [params](std::uint64_t seed) {
    return std::make_unique<phy::GilbertElliottModel>(params, seed);
  };
}

std::vector<ModelCase> Cases() {
  const phy::GilbertElliottModel::Params defaults;
  const phy::GilbertElliottModel::Params harsh{0.3, 0.3, 0.1, 0.5};
  std::vector<ModelCase> cases = {
      {"perfect",
       [](std::uint64_t) { return std::make_unique<phy::PerfectChannel>(); },
       false, false},
      {"uniform_0_005", Uniform(0.005)},
      {"uniform_0_3", Uniform(0.3)},
      {"uniform_1", Uniform(1.0)},
  };
  for (const bool side_info : {false, true}) {
    const std::string suffix = side_info ? "_side_info" : "";
    cases.push_back({"ge_defaults" + suffix, Ge(defaults), side_info});
    cases.push_back({"ge_harsh" + suffix, Ge(harsh), side_info});
  }
  return cases;
}

struct ContractParam {
  ModelCase model;
  bool small_code = false;  ///< RS(32,9) instead of RS(64,48)

  const fec::ReedSolomon& code() const {
    return small_code ? fec::ReedSolomon::Osu329() : fec::ReedSolomon::Osu6448();
  }
};

void PrintTo(const ContractParam& param, std::ostream* os) {
  *os << param.model.name << (param.small_code ? " RS(32,9)" : " RS(64,48)");
}

std::vector<ContractParam> Params() {
  std::vector<ContractParam> params;
  for (const ModelCase& m : Cases()) {
    params.push_back({m, false});
    params.push_back({m, true});
  }
  return params;
}

std::vector<fec::GfElem> RandomBlock(const fec::ReedSolomon& code, Rng& rng) {
  std::vector<fec::GfElem> block(static_cast<std::size_t>(code.k()));
  for (auto& b : block) b = static_cast<fec::GfElem>(rng.UniformInt(0, 255));
  return block;
}

int Corrupt(phy::SymbolErrorModel& model, std::span<fec::GfElem> word, bool side_info,
            std::vector<int>* erasures) {
  erasures->clear();
  return side_info ? model.CorruptWithSideInfo(word, erasures) : model.Corrupt(word);
}

class ChannelContractTest : public ::testing::TestWithParam<ContractParam> {};

TEST_P(ChannelContractTest, ZeroWordYieldsTheErrorPattern) {
  const ContractParam& param = GetParam();
  const fec::ReedSolomon& code = param.code();
  const std::uint64_t seed = 9001;
  auto on_zeros = param.model.make(seed);
  auto on_codeword = param.model.make(seed);
  Rng data_rng(17);
  std::vector<int> zero_erasures, word_erasures;
  int touched = 0;
  for (int w = 0; w < kWords; ++w) {
    const std::vector<fec::GfElem> sent = code.Encode(RandomBlock(code, data_rng));
    std::vector<fec::GfElem> pattern(sent.size(), 0);
    std::vector<fec::GfElem> received = sent;
    const int zero_hits =
        Corrupt(*on_zeros, pattern, param.model.side_info, &zero_erasures);
    const int word_hits =
        Corrupt(*on_codeword, received, param.model.side_info, &word_erasures);
    ASSERT_EQ(zero_hits, word_hits) << "word " << w;
    ASSERT_EQ(zero_erasures, word_erasures) << "word " << w;
    int nonzero = 0;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      ASSERT_EQ(static_cast<fec::GfElem>(sent[i] ^ received[i]), pattern[i])
          << "word " << w << " symbol " << i;
      if (pattern[i] != 0) ++nonzero;
    }
    ASSERT_EQ(nonzero, zero_hits) << "the hit count is the pattern's weight";
    if (zero_hits > 0 || !zero_erasures.empty()) ++touched;
  }
  if (param.model.touches) {
    EXPECT_GT(touched, 0);
  } else {
    EXPECT_EQ(touched, 0);
  }
}

TEST_P(ChannelContractTest, LazyParityMatchesEagerReceiver) {
  const ContractParam& param = GetParam();
  const fec::ReedSolomon& code = param.code();
  const std::size_t k = static_cast<std::size_t>(code.k());
  const std::uint64_t seed = 9002;
  auto lazy_model = param.model.make(seed);
  auto eager_model = param.model.make(seed);
  Rng data_rng(18);
  phy::ChannelScratch scratch;
  std::vector<fec::GfElem> residual(k);
  int failures = 0, corrected_calls = 0, miscorrections = 0;
  for (int call = 0; call < kWords / kBlocksPerCall; ++call) {
    int lazy_corrected = 0, eager_corrected = 0;
    bool lazy_ok = true, eager_ok = true;
    for (int w = 0; w < kBlocksPerCall && lazy_ok; ++w) {
      const std::vector<fec::GfElem> block = RandomBlock(code, data_rng);
      const phy::WordFate fate = phy::ReceiveWord(code, *lazy_model, scratch, residual,
                                                  &lazy_corrected, param.model.side_info);
      const auto eager = oracle::EagerReceiveBlock(block, code, *eager_model,
                                                   param.model.side_info, &eager_corrected);
      lazy_ok = fate != phy::WordFate::kLost;
      eager_ok = eager.has_value();
      ASSERT_EQ(lazy_ok, eager_ok) << "call " << call << " word " << w;
      if (!lazy_ok) break;
      std::vector<fec::GfElem> received = block;
      for (std::size_t i = 0; i < k; ++i) received[i] ^= residual[i];
      ASSERT_EQ(received, *eager) << "call " << call << " word " << w;
      ASSERT_EQ(fate == phy::WordFate::kMiscorrected, received != block);
      if (fate == phy::WordFate::kMiscorrected) ++miscorrections;
    }
    ASSERT_EQ(lazy_corrected, eager_corrected) << "call " << call;
    if (!lazy_ok) {
      ++failures;
      continue;
    }
    if (lazy_corrected > 0) ++corrected_calls;
  }
  if (!param.model.touches) {
    EXPECT_EQ(failures, 0);
    EXPECT_EQ(corrected_calls, 0);
    EXPECT_EQ(miscorrections, 0);
  } else {
    EXPECT_GT(failures + corrected_calls, 0) << "the channel must actually do something";
  }
}

TEST(ChannelContractDeathTest, WrongBlockLengthIsRejected) {
  const fec::ReedSolomon& code = fec::ReedSolomon::Osu6448();
  phy::PerfectChannel model;
  phy::ChannelScratch scratch;
  std::vector<fec::GfElem> residual(static_cast<std::size_t>(code.n()), 0);
  // A codeword-sized buffer where an information block belongs is the
  // mistake the check exists for.
  EXPECT_DEATH(phy::ReceiveWord(code, model, scratch, residual), "lhs = 64, rhs = 48");
}

// --- RS linearity ------------------------------------------------------------
// decode(c ^ e) fails exactly when decode(e) fails; otherwise its
// information is data ^ info(decode(e)) with the same corrections.  Error
// weights and erasure counts run from zero to past the code's capacity.

class RsLinearityTest : public ::testing::TestWithParam<bool> {};

TEST_P(RsLinearityTest, DecodingTheErrorMatchesDecodingTheWord) {
  const fec::ReedSolomon& code =
      GetParam() ? fec::ReedSolomon::Osu329() : fec::ReedSolomon::Osu6448();
  const int n = code.n();
  const int parity = code.n() - code.k();
  const std::size_t k = static_cast<std::size_t>(code.k());
  Rng rng(GetParam() ? 4242 : 4243);
  int failures = 0, corrected = 0, filled = 0, miscorrected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::vector<fec::GfElem> data = RandomBlock(code, rng);
    const std::vector<fec::GfElem> c = code.Encode(data);
    std::vector<fec::GfElem> e(static_cast<std::size_t>(n), 0);
    const int weight = static_cast<int>(rng.UniformInt(0, parity + 4));
    for (int i = 0; i < weight; ++i) {
      e[static_cast<std::size_t>(rng.UniformInt(0, n - 1))] =
          static_cast<fec::GfElem>(rng.UniformInt(1, 255));
    }
    // Erasure flags: distinct positions, some on errors, some not.
    std::vector<int> erasures;
    const int flags = static_cast<int>(rng.UniformInt(0, parity));
    for (int i = 0; i < flags; ++i) {
      const int pos = static_cast<int>(rng.UniformInt(0, n - 1));
      if (std::find(erasures.begin(), erasures.end(), pos) == erasures.end()) {
        erasures.push_back(pos);
      }
    }
    std::vector<fec::GfElem> word = c;
    for (int i = 0; i < n; ++i) word[static_cast<std::size_t>(i)] ^= e[static_cast<std::size_t>(i)];

    const auto of_word = code.DecodeWithErasures(word, erasures);
    const auto of_error = code.DecodeWithErasures(e, erasures);
    ASSERT_EQ(of_word.has_value(), of_error.has_value()) << "trial " << trial;
    if (!of_word.has_value()) {
      ++failures;
      continue;
    }
    std::vector<fec::GfElem> expected = data;
    bool residual = false;
    for (std::size_t i = 0; i < k; ++i) {
      expected[i] ^= of_error->data[i];
      residual |= of_error->data[i] != 0;
    }
    ASSERT_EQ(of_word->data, expected) << "trial " << trial;
    ASSERT_EQ(of_word->errors_corrected, of_error->errors_corrected) << "trial " << trial;
    ASSERT_EQ(of_word->erasures_filled, of_error->erasures_filled) << "trial " << trial;
    if (residual) ++miscorrected;
    if (of_word->errors_corrected > 0) ++corrected;
    if (of_word->erasures_filled > 0) ++filled;
  }
  EXPECT_GT(failures, 1000) << "patterns must run past capacity";
  EXPECT_GT(corrected, 1000);
  EXPECT_GT(filled, 1000);
  (void)miscorrected;  // rare; counted by the oracle tests
}

INSTANTIATE_TEST_SUITE_P(Codes, RsLinearityTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "rs32_9" : "rs64_48";
                         });

INSTANTIATE_TEST_SUITE_P(
    Models, ChannelContractTest, ::testing::ValuesIn(Params()),
    [](const ::testing::TestParamInfo<ContractParam>& info) {
      return info.param.model.name + (info.param.small_code ? "_rs32_9" : "_rs64_48");
    });

}  // namespace
}  // namespace osumac
