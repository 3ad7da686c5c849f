// Statistics helpers used by the metrics layer and the benchmark harnesses:
// running moments, sample quantiles, Jain's fairness index (reference [11]
// of the paper), and fixed-bin histograms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace osumac {

/// Single-pass mean / variance / min / max accumulator (Welford's method).
class RunningStats {
 public:
  void Add(double x);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Retains all samples; answers arbitrary quantile queries.
/// Suitable for the per-run sample counts in this simulator (<= millions).
class SampleSet {
 public:
  void Add(double x) { samples_.push_back(x); sorted_ = false; }

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Quantile by linear interpolation, q in [0, 1]. Requires non-empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  double Mean() const;
  double Max() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Jain's fairness index: (sum u_i)^2 / (n * sum u_i^2).
/// Equals 1 when all allocations are equal; 1/n in the most unfair case.
double JainFairnessIndex(std::span<const double> allocations);

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp to
/// the boundary bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void Add(double x);

  std::size_t bins() const { return counts_.size(); }
  std::int64_t bin_count(std::size_t i) const { return counts_[i]; }
  double bin_lower(std::size_t i) const;
  std::int64_t total() const { return total_; }

  /// Fraction of samples with value <= x (by bin upper edge).
  double CumulativeFractionAtOrBelow(double x) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
};

}  // namespace osumac
