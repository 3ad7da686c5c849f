// Unit tests for the PHY layer: Table-1 parameters, error models, the
// half-duplex radio, and the collision-detecting reverse channel.
#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "fec/reed_solomon.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "phy/phy_params.h"
#include "phy/radio.h"

namespace osumac::phy {
namespace {

// --- Table 1 parameters -------------------------------------------------------

TEST(PhyParamsTest, Table1GeneralCharacteristics) {
  EXPECT_EQ(kForwardSymbolRate, 3200);
  EXPECT_EQ(kReverseSymbolRate, 2400);
  EXPECT_EQ(kBitsPerSymbol, 2);
  EXPECT_EQ(kInfoSymbolsPerPilotFrame, 128);
  EXPECT_EQ(kSymbolsPerPilotFrame, 150);
  EXPECT_EQ(kRsInfoBits, 384);
  EXPECT_EQ(kRsCodewordBits, 512);
  EXPECT_NEAR(kPilotFrameEfficiency, 128.0 / 150.0, 1e-12);
}

TEST(PhyParamsTest, Table1PacketTimes) {
  EXPECT_EQ(kPilotFramesPerCodeword, 2);
  EXPECT_EQ(kRegularPacketSymbols, 300);
  EXPECT_DOUBLE_EQ(ToSeconds(kRegularPacketForwardTicks), 0.09375);
  EXPECT_DOUBLE_EQ(ToSeconds(kRegularPacketReverseTicks), 0.125);
  EXPECT_DOUBLE_EQ(ToSeconds(kForwardCyclePreambleTicks), 0.09375);
}

TEST(PhyParamsTest, Table1ReversePacketFraming) {
  // GPS: 64 preamble + 128 body + 18 guard = 210 symbols = 0.0875 s.
  EXPECT_EQ(kGpsSlotSymbols, 210);
  EXPECT_DOUBLE_EQ(ToSeconds(kGpsSlotTicks), 0.0875);
  EXPECT_EQ(kGpsInfoBits, 72);
  EXPECT_EQ(kGpsCodedBytes, 32);
  // Regular: 600 preamble + 300 body + 51 postamble + 18 guard = 969.
  EXPECT_EQ(kReverseDataSlotSymbols, 969);
  EXPECT_DOUBLE_EQ(ToSeconds(kReverseDataSlotTicks), 0.40375);
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(kRegularPreambleSymbols)), 0.25);
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(kRegularPostambleSymbols)), 0.02125);
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(kPacketGuardSymbols)), 0.0075);
}

TEST(PhyParamsTest, LinkRates) {
  EXPECT_EQ(kForwardBitRate, 6400);  // "up to 6.4 kbps"
  EXPECT_EQ(kReverseBitRate, 4800);  // "4.8 kbps"
}

// --- error models --------------------------------------------------------------

TEST(ErrorModelTest, PerfectChannelNeverCorrupts) {
  PerfectChannel model;
  std::vector<fec::GfElem> word(64, 0xAB);
  EXPECT_EQ(model.Corrupt(word), 0);
  EXPECT_TRUE(std::all_of(word.begin(), word.end(), [](auto b) { return b == 0xAB; }));
}

TEST(ErrorModelTest, UniformModelHitsAtConfiguredRate) {
  UniformErrorModel model(0.05, 2);
  int hits = 0;
  const int words = 2000;
  for (int i = 0; i < words; ++i) {
    std::vector<fec::GfElem> word(64, 0);
    hits += model.Corrupt(word);
  }
  const double rate = static_cast<double>(hits) / (words * 64.0);
  EXPECT_NEAR(rate, 0.05, 0.005);
}

TEST(ErrorModelTest, CorruptedByteAlwaysDiffers) {
  UniformErrorModel model(1.0, 3);
  std::vector<fec::GfElem> word(64, 0x5A);
  EXPECT_EQ(model.Corrupt(word), 64);
  for (auto b : word) EXPECT_NE(b, 0x5A);
}

TEST(ErrorModelTest, GilbertElliottProducesBurstRegimes) {
  // The paper's field observation: either few errors (correctable) or many
  // (decoder failure).  With a bursty channel the per-codeword error count
  // distribution must be bimodal: mostly <= t, occasionally >> t.
  GilbertElliottModel::Params p;
  p.p_good_to_bad = 0.002;
  p.p_bad_to_good = 0.05;
  p.error_prob_good = 1e-4;
  p.error_prob_bad = 0.5;
  GilbertElliottModel model(p, 4);
  int clean_or_light = 0;
  int heavy = 0;
  const int words = 5000;
  for (int i = 0; i < words; ++i) {
    std::vector<fec::GfElem> word(64, 0);
    const int hits = model.Corrupt(word);
    if (hits <= 8) ++clean_or_light;
    if (hits > 12) ++heavy;
  }
  EXPECT_GT(clean_or_light, words * 7 / 10);
  EXPECT_GT(heavy, 10) << "fades must occasionally swamp a codeword";
}

TEST(ErrorModelTest, TwoRegimeDecodeBehaviourThroughRsCodec) {
  // End-to-end: Gilbert-Elliott + RS(64,48) either corrects or fails;
  // silent corruption must never reach the caller.
  Rng rng(5);
  const auto& rs = fec::ReedSolomon::Osu6448();
  GilbertElliottModel model(GilbertElliottModel::Params{}, 5);
  int corrected = 0, failed = 0, wrong = 0;
  for (int i = 0; i < 3000; ++i) {
    std::vector<fec::GfElem> data(48);
    for (auto& b : data) b = static_cast<fec::GfElem>(rng.UniformInt(0, 255));
    auto cw = rs.Encode(data);
    model.Corrupt(cw);
    const auto result = rs.Decode(cw);
    if (!result.has_value()) {
      ++failed;
    } else if (result->data != data) {
      ++wrong;
    } else if (result->errors_corrected > 0) {
      ++corrected;
    }
  }
  EXPECT_EQ(wrong, 0) << "no silent corruption";
  EXPECT_GT(corrected + failed, 0) << "the channel must actually do something";
}

// --- radio -----------------------------------------------------------------------

TEST(RadioTest, TxBlocksOverlappingRx) {
  HalfDuplexRadio radio;
  radio.CommitTransmit({1000, 2000});
  EXPECT_FALSE(radio.CanReceive({1500, 2500}));
  EXPECT_FALSE(radio.CanReceive({0, 1001}));
  EXPECT_TRUE(radio.CanReceive({2000 + kHalfDuplexSwitchTicks, 4000}));
  EXPECT_FALSE(radio.CanReceive({2000 + kHalfDuplexSwitchTicks - 1, 4000}))
      << "20 ms switch guard enforced";
}

TEST(RadioTest, RxBlocksOverlappingTx) {
  HalfDuplexRadio radio;
  radio.CommitReceive({5000, 6000});
  EXPECT_FALSE(radio.CanTransmit({5900, 7000}));
  EXPECT_FALSE(radio.CanTransmit({6000, 7000})) << "needs the switch guard";
  EXPECT_TRUE(radio.CanTransmit({6000 + kHalfDuplexSwitchTicks, 7000}));
  EXPECT_TRUE(radio.CanTransmit({0, 5000 - kHalfDuplexSwitchTicks}));
}

TEST(RadioTest, RxDoesNotBlockRx) {
  HalfDuplexRadio radio;
  radio.CommitReceive({0, 1000});
  EXPECT_TRUE(radio.CanReceive({500, 1500})) << "receiving is continuous";
}

TEST(RadioTest, ForgetPrunesOldCommitments) {
  HalfDuplexRadio radio;
  radio.CommitTransmit({0, 100});
  radio.CommitTransmit({10000, 10100});
  radio.Forget(5000);
  EXPECT_EQ(radio.pending_tx(), 1u);
  EXPECT_TRUE(radio.CanReceive({0, 200})) << "old TX no longer blocks";
  EXPECT_FALSE(radio.CanReceive({10000, 10050}));
}

// --- reverse channel ---------------------------------------------------------------

CodedBurst MakeBurst(Interval when, int sender) {
  CodedBurst burst;
  burst.on_air = when;
  burst.sender = sender;
  return burst;
}

SlotReception ResolvePerSender(ReverseChannel& ch, Interval slot, const fec::ReedSolomon& rs,
                               const std::function<SymbolErrorModel&(int)>& model_for) {
  ChannelScratch scratch;
  SlotReception reception;
  ch.ResolveSlotPerSenderInto(slot, rs, model_for, scratch, reception);
  return reception;
}

SlotReception Resolve(ReverseChannel& ch, Interval slot, const fec::ReedSolomon& rs,
                      SymbolErrorModel& model) {
  return ResolvePerSender(ch, slot, rs, [&model](int) -> SymbolErrorModel& { return model; });
}

TEST(ReverseChannelTest, IdleSlot) {
  ReverseChannel ch;
  PerfectChannel model;
  const auto r = Resolve(ch, {0, 100}, fec::ReedSolomon::Osu6448(), model);
  EXPECT_EQ(r.outcome, SlotOutcome::kIdle);
}

TEST(ReverseChannelTest, SingleBurstDecodes) {
  ReverseChannel ch;
  PerfectChannel model;
  const auto& rs = fec::ReedSolomon::Osu6448();
  ch.Transmit(MakeBurst({0, 100}, 3));
  const auto r = Resolve(ch, {0, 100}, rs, model);
  EXPECT_EQ(r.outcome, SlotOutcome::kDecoded);
  EXPECT_EQ(r.sender, 3);
  ASSERT_EQ(static_cast<int>(r.residual.size()), rs.k()) << "one word's residual";
  EXPECT_FALSE(r.miscorrected);
}

TEST(ReverseChannelTest, OverlappingBurstsCollide) {
  ReverseChannel ch;
  PerfectChannel model;
  const auto& rs = fec::ReedSolomon::Osu6448();
  ch.Transmit(MakeBurst({0, 100}, 1));
  ch.Transmit(MakeBurst({50, 150}, 2));
  const auto r = Resolve(ch, {0, 150}, rs, model);
  EXPECT_EQ(r.outcome, SlotOutcome::kCollision);
  EXPECT_EQ(r.colliders, (std::vector<int>{1, 2}));
}

TEST(ReverseChannelTest, DisjointSlotsResolveIndependently) {
  ReverseChannel ch;
  PerfectChannel model;
  const auto& rs = fec::ReedSolomon::Osu6448();
  ch.Transmit(MakeBurst({0, 100}, 1));
  ch.Transmit(MakeBurst({200, 300}, 2));
  const auto r1 = Resolve(ch, {0, 100}, rs, model);
  EXPECT_EQ(r1.outcome, SlotOutcome::kDecoded);
  EXPECT_EQ(r1.sender, 1);
  EXPECT_EQ(ch.pending_bursts(), 1u);
  const auto r2 = Resolve(ch, {200, 300}, rs, model);
  EXPECT_EQ(r2.outcome, SlotOutcome::kDecoded);
  EXPECT_EQ(r2.sender, 2);
  EXPECT_EQ(ch.pending_bursts(), 0u);
}

TEST(ReverseChannelTest, HeavyNoiseYieldsDecodeFailureNotCorruption) {
  ReverseChannel ch;
  UniformErrorModel model(0.5, 10);  // way beyond t = 8 correctable symbols
  const auto& rs = fec::ReedSolomon::Osu6448();
  int failures = 0;
  for (int i = 0; i < 50; ++i) {
    ch.Transmit(MakeBurst({i * 100, i * 100 + 50}, 1));
    const auto r = Resolve(ch, {i * 100, i * 100 + 50}, rs, model);
    if (r.outcome == SlotOutcome::kDecodeFailure) ++failures;
  }
  EXPECT_GE(failures, 48) << "overwhelmed decoder must fail, not lie";
}

TEST(ReverseChannelTest, PerSenderModels) {
  ReverseChannel ch;
  const auto& rs = fec::ReedSolomon::Osu6448();
  PerfectChannel good;
  UniformErrorModel bad(0.9, 11);
  ch.Transmit(MakeBurst({0, 100}, 0));
  ch.Transmit(MakeBurst({200, 300}, 1));
  auto model_for = [&](int sender) -> SymbolErrorModel& {
    return sender == 0 ? static_cast<SymbolErrorModel&>(good)
                       : static_cast<SymbolErrorModel&>(bad);
  };
  EXPECT_EQ(ResolvePerSender(ch, {0, 100}, rs, model_for).outcome,
            SlotOutcome::kDecoded);
  EXPECT_EQ(ResolvePerSender(ch, {200, 300}, rs, model_for).outcome,
            SlotOutcome::kDecodeFailure);
}

}  // namespace
}  // namespace osumac::phy
