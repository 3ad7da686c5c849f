// Pins the contract the lazy-parity receive path rests on.  The channel
// puts information blocks on the air and asks each error model for the
// error pattern e by corrupting an all-zero word; only a touched word is
// encoded, XOR-ed with e and decoded.  That is exact only if every model
// corrupts by XOR-ing data-independent deltas (SymbolErrorModel's XOR
// contract).  For each model, two same-seed copies are run side by side:
//
//   * one corrupts zeros, the other a random codeword: the hit counts and
//     erasure lists must agree and the codeword must change by exactly the
//     pattern the zeros picked up;
//   * one feeds phy::ApplyChannelInto, the other an eager reference kept
//     here (encode every word, corrupt it in place, decode it): the ok
//     flag, the decoded bytes and errors_corrected must agree.
//
// Words go out two blocks per call (like a control-field set), so the
// reference also pins that a failed first block stops the second one
// from drawing.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
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

/// The eager receive path: every block is encoded, corrupted in place and
/// decoded (the erasure cap mirrors phy::ReceiveBlockInto).
bool EagerReceive(const std::vector<std::vector<fec::GfElem>>& blocks,
                  const fec::ReedSolomon& code, phy::SymbolErrorModel& model,
                  bool side_info, std::vector<std::vector<fec::GfElem>>& decoded,
                  int* errors_corrected) {
  decoded.clear();
  std::vector<int> erasures;
  for (const auto& block : blocks) {
    std::vector<fec::GfElem> word = code.Encode(block);
    Corrupt(model, word, side_info, &erasures);
    fec::DecodeResult result;
    const bool ok = static_cast<int>(erasures.size()) <= code.n() - code.k() - 1
                        ? code.DecodeWithErasuresInto(word, erasures, &result)
                        : code.DecodeInto(word, &result);
    if (!ok) return false;
    *errors_corrected += result.errors_corrected;
    decoded.push_back(result.data);
  }
  return true;
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
  const std::uint64_t seed = 9002;
  auto lazy_model = param.model.make(seed);
  auto eager_model = param.model.make(seed);
  Rng data_rng(18);
  phy::ChannelScratch scratch;
  std::vector<std::vector<fec::GfElem>> lazy_decoded, eager_decoded;
  std::vector<std::vector<fec::GfElem>> blocks(kBlocksPerCall);
  int failures = 0, corrected_calls = 0;
  for (int call = 0; call < kWords / kBlocksPerCall; ++call) {
    for (auto& b : blocks) b = RandomBlock(code, data_rng);
    int lazy_corrected = 0, eager_corrected = 0;
    const bool lazy_ok =
        phy::ApplyChannelInto(blocks, code, *lazy_model, scratch, lazy_decoded,
                              &lazy_corrected, param.model.side_info);
    const bool eager_ok = EagerReceive(blocks, code, *eager_model, param.model.side_info,
                                       eager_decoded, &eager_corrected);
    ASSERT_EQ(lazy_ok, eager_ok) << "call " << call;
    ASSERT_EQ(lazy_corrected, eager_corrected) << "call " << call;
    if (!lazy_ok) {
      ++failures;
      continue;
    }
    ASSERT_EQ(lazy_decoded, eager_decoded) << "call " << call;
    if (lazy_corrected > 0) ++corrected_calls;
  }
  if (!param.model.touches) {
    EXPECT_EQ(failures, 0);
    EXPECT_EQ(corrected_calls, 0);
  } else {
    EXPECT_GT(failures + corrected_calls, 0) << "the channel must actually do something";
  }
}

TEST(ChannelContractDeathTest, WrongBlockLengthIsRejected) {
  const fec::ReedSolomon& code = fec::ReedSolomon::Osu6448();
  phy::PerfectChannel model;
  phy::ChannelScratch scratch;
  std::vector<fec::GfElem> decoded;
  const std::vector<fec::GfElem> codeword(static_cast<std::size_t>(code.n()), 0);
  // A codeword where a block belongs is the mistake the check exists for.
  EXPECT_DEATH(phy::ReceiveBlockInto(codeword, code, model, scratch, decoded),
               "lhs = 64, rhs = 48");
}

INSTANTIATE_TEST_SUITE_P(
    Models, ChannelContractTest, ::testing::ValuesIn(Params()),
    [](const ::testing::TestParamInfo<ContractParam>& info) {
      return info.param.model.name + (info.param.small_code ? "_rs32_9" : "_rs64_48");
    });

}  // namespace
}  // namespace osumac
