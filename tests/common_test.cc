// Unit tests for the common utilities: tick arithmetic, intervals, bit I/O,
// statistics, the deterministic RNG and the fork/join parallel primitives.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/bitio.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"

namespace osumac {
namespace {

// --- time -------------------------------------------------------------------

TEST(TimeTest, SymbolDurationsAreExact) {
  EXPECT_EQ(kTicksPerForwardSymbol, 15);
  EXPECT_EQ(kTicksPerReverseSymbol, 20);
  EXPECT_EQ(ForwardSymbols(3200), kTicksPerSecond);
  EXPECT_EQ(ReverseSymbols(2400), kTicksPerSecond);
}

TEST(TimeTest, PaperDurationsAreExactTicks) {
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(969)), 0.40375);   // data slot
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(210)), 0.0875);    // GPS slot
  EXPECT_DOUBLE_EQ(ToSeconds(ForwardSymbols(300)), 0.09375);   // fwd packet
  EXPECT_DOUBLE_EQ(ToSeconds(ReverseSymbols(300)), 0.125);     // rev packet
  EXPECT_DOUBLE_EQ(ToSeconds(FromMilliseconds(20)), 0.020);    // switch guard
}

TEST(IntervalTest, OverlapIsHalfOpen) {
  const Interval a{0, 10};
  const Interval b{10, 20};
  EXPECT_FALSE(a.Overlaps(b)) << "touching intervals do not overlap";
  EXPECT_TRUE(a.Overlaps({9, 11}));
  EXPECT_TRUE(a.Overlaps({-5, 1}));
  EXPECT_FALSE(a.Overlaps({-5, 0}));
  EXPECT_TRUE(a.Overlaps({3, 4}));  // containment
}

TEST(IntervalTest, PaddedGrowsBothSides) {
  const Interval a{100, 200};
  EXPECT_EQ(a.Padded(20), (Interval{80, 220}));
  // A 20 ms guard makes back-to-back TX/RX illegal but a gap of exactly
  // one guard legal (half-open).
  const Interval tx{0, 100};
  const Interval rx{100 + 960, 2000};
  EXPECT_FALSE(tx.Padded(960).Overlaps(rx));
  EXPECT_TRUE(tx.Padded(961).Overlaps(rx));
}

TEST(IntervalTest, ContainsAndLength) {
  const Interval a{5, 8};
  EXPECT_TRUE(a.Contains(5));
  EXPECT_TRUE(a.Contains(7));
  EXPECT_FALSE(a.Contains(8));
  EXPECT_EQ(a.length(), 3);
  EXPECT_TRUE((Interval{4, 4}.empty()));
}

// --- bit I/O -----------------------------------------------------------------

TEST(BitIoTest, RoundTripMixedWidths) {
  std::vector<std::uint8_t> buf(8);
  BitWriter w(buf);
  w.Write(0b101, 3);
  w.Write(0xBEEF, 16);
  w.Write(0, 1);
  w.Write(0x3F, 6);
  w.Write(0x123456789ULL, 36);
  BitReader r(buf);
  EXPECT_EQ(r.Read(3), 0b101u);
  EXPECT_EQ(r.Read(16), 0xBEEFu);
  EXPECT_EQ(r.Read(1), 0u);
  EXPECT_EQ(r.Read(6), 0x3Fu);
  EXPECT_EQ(r.Read(36), 0x123456789ULL);
  EXPECT_FALSE(r.overflowed());
}

TEST(BitIoTest, MsbFirstLayout) {
  std::vector<std::uint8_t> buf(1);
  BitWriter w(buf);
  w.Write(1, 1);
  w.Write(0, 7);
  EXPECT_EQ(w.bit_size(), 8);
  EXPECT_EQ(buf[0], 0x80);
}

TEST(BitIoTest, ReadingPastEndOverflowsWithZeros) {
  const std::vector<std::uint8_t> buf = {0xFF};
  BitReader r(buf);
  EXPECT_EQ(r.Read(8), 0xFFu);
  EXPECT_EQ(r.Read(8), 0u);
  EXPECT_TRUE(r.overflowed());
}

TEST(BitIoTest, PaddingAndZeros) {
  std::vector<std::uint8_t> buf(48, 0xFF);  // stale contents are cleared
  BitWriter w(buf);
  w.Write(0xA, 4);
  w.WriteZeros(100);
  EXPECT_EQ(w.bit_size(), 104);
  EXPECT_EQ(buf[0], 0xA0);
  for (std::size_t i = 1; i < 48; ++i) EXPECT_EQ(buf[i], 0);
}

// Bit-at-a-time reference codec (the original implementation): the
// byte-wise BitWriter/BitReader must agree with it bit for bit.
void RefWrite(std::vector<std::uint8_t>& bytes, int& bit_size, std::uint64_t value,
              int width) {
  for (int i = width - 1; i >= 0; --i) {
    const int byte_index = bit_size / 8;
    if (byte_index == static_cast<int>(bytes.size())) bytes.push_back(0);
    if (((value >> i) & 1u) != 0) {
      bytes[static_cast<std::size_t>(byte_index)] |=
          static_cast<std::uint8_t>(1u << (7 - bit_size % 8));
    }
    ++bit_size;
  }
}

struct RefReader {
  const std::vector<std::uint8_t>& bytes;
  int pos = 0;
  bool overflowed = false;

  std::uint64_t Read(int width) {
    std::uint64_t value = 0;
    for (int i = 0; i < width; ++i) {
      int bit = 0;
      if (pos / 8 < static_cast<int>(bytes.size())) {
        bit = (bytes[static_cast<std::size_t>(pos / 8)] >> (7 - pos % 8)) & 1;
      } else {
        overflowed = true;
      }
      value = (value << 1) | static_cast<std::uint64_t>(bit);
      ++pos;
    }
    return value;
  }
  void Skip(int count) {
    pos += count;
    if (pos > static_cast<int>(bytes.size()) * 8) overflowed = true;
  }
};

std::uint64_t RandomField(Rng& rng, int width) {
  const std::uint64_t v = rng.Next();
  return width == 64 ? v : v & ((std::uint64_t{1} << width) - 1);
}

TEST(BitIoTest, MatchesBitAtATimeReference) {
  Rng rng(4242);
  for (int trial = 0; trial < 500; ++trial) {
    // Random (value, width) fields after an unaligned run of zero bits.
    const int lead = static_cast<int>(rng.UniformInt(0, 15));
    std::vector<std::pair<std::uint64_t, int>> fields;
    int bits = lead;
    const int count = static_cast<int>(rng.UniformInt(1, 24));
    for (int f = 0; f < count; ++f) {
      const int width = static_cast<int>(rng.UniformInt(1, 64));
      fields.emplace_back(RandomField(rng, width), width);
      bits += width;
    }

    std::vector<std::uint8_t> ref;
    int ref_bits = 0;
    if (lead > 0) RefWrite(ref, ref_bits, 0, lead);
    for (const auto& [v, width] : fields) RefWrite(ref, ref_bits, v, width);

    std::vector<std::uint8_t> buf(static_cast<std::size_t>((bits + 7) / 8), 0x5A);
    BitWriter w(buf);
    if (lead > 0) w.WriteZeros(lead);
    for (const auto& [v, width] : fields) w.Write(v, width);
    ASSERT_EQ(w.bit_size(), ref_bits);
    ASSERT_EQ(buf, ref) << "trial " << trial;

    // Read back with random widths and skips, running past the end.
    BitReader r(buf);
    RefReader rr{ref};
    while (rr.pos < bits + 96) {
      if (rng.UniformInt(0, 4) == 0) {
        const int skip = static_cast<int>(rng.UniformInt(0, 20));
        r.Skip(skip);
        rr.Skip(skip);
      } else {
        const int width = static_cast<int>(rng.UniformInt(1, 64));
        ASSERT_EQ(r.Read(width), rr.Read(width))
            << "trial " << trial << " pos " << rr.pos;
      }
      ASSERT_EQ(r.bit_position(), rr.pos);
      ASSERT_EQ(r.overflowed(), rr.overflowed);
    }
    EXPECT_TRUE(r.overflowed());
  }
}

TEST(BitIoTest, ReadStraddlingTheEndZeroFillsTheTail) {
  const std::vector<std::uint8_t> buf = {0xAB, 0xCD};
  BitReader r(buf);
  r.Skip(4);
  EXPECT_EQ(r.Read(16), 0xBCD0u);  // 12 real bits, then 4 zero bits
  EXPECT_TRUE(r.overflowed());
  EXPECT_EQ(r.bit_position(), 20);
  EXPECT_EQ(r.Read(64), 0u);
  EXPECT_EQ(r.bit_position(), 84);

  BitReader skipper(buf);
  skipper.Skip(16);
  EXPECT_FALSE(skipper.overflowed());  // exactly at the end
  skipper.Skip(1);
  EXPECT_TRUE(skipper.overflowed());
  EXPECT_EQ(skipper.Read(8), 0u);
  EXPECT_EQ(skipper.bit_position(), 25);
}

// --- stats --------------------------------------------------------------------

TEST(StatsTest, RunningStatsMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, SampleSetQuantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.95), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
}

TEST(StatsTest, JainFairness) {
  const double equal[] = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(JainFairnessIndex(equal), 1.0);
  const double unfair[] = {1, 0, 0, 0};
  EXPECT_DOUBLE_EQ(JainFairnessIndex(unfair), 0.25);  // 1/n
  const double mixed[] = {4, 2, 2};
  // (8)^2 / (3 * 24) = 64/72
  EXPECT_NEAR(JainFairnessIndex(mixed), 64.0 / 72.0, 1e-12);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
}

TEST(StatsTest, HistogramCumulative) {
  Histogram h(0.0, 10.0, 10);
  for (double x : {0.5, 1.5, 1.6, 2.5, 9.5, 100.0}) h.Add(x);  // 100 clamps
  EXPECT_EQ(h.total(), 6);
  EXPECT_EQ(h.bin_count(1), 2);
  EXPECT_EQ(h.bin_count(9), 2);  // 9.5 and the clamped 100
  EXPECT_NEAR(h.CumulativeFractionAtOrBelow(3.0), 4.0 / 6.0, 1e-12);
}

// --- rng -----------------------------------------------------------------------

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, ForkDiverges) {
  Rng a(123);
  Rng c = a.Fork();
  Rng d = a.Fork();
  EXPECT_NE(c.Next(), d.Next());
}

TEST(RngTest, UniformIntBounds) {
  Rng a(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = a.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng a(6);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += a.Exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 1.5);
}

TEST(RngTest, BernoulliRate) {
  Rng a(7);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += a.Bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

// --- parallel ----------------------------------------------------------------

TEST(ParallelForIndexTest, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  ParallelForIndex(257, 4, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForIndexTest, PropagatesWorkerException) {
  EXPECT_THROW(ParallelForIndex(64, 4,
                                [](int i) {
                                  if (i == 13) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(TaskPoolTest, BarrierCompletesEveryIndexEachRound) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  for (int round = 1; round <= 5; ++round) {
    pool.Run(100, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
    // Run() is a barrier, so every index is visible right here, every round.
    for (const auto& h : hits) ASSERT_EQ(h.load(), round);
  }
}

TEST(TaskPoolTest, SingleThreadRunsInline) {
  TaskPool pool(1);
  int sum = 0;  // no atomics needed: threads_ == 1 never spawns workers
  pool.Run(10, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(TaskPoolTest, ExceptionSurfacesAndPoolStaysUsable) {
  TaskPool pool(4);
  EXPECT_THROW(
      pool.Run(64, [](int i) { if (i == 7) throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::atomic<int> completed{0};
  pool.Run(64, [&](int) { completed.fetch_add(1); });
  EXPECT_EQ(completed.load(), 64);
}

}  // namespace
}  // namespace osumac
