#include "common/stats.h"

#include <algorithm>
#include "common/check.h"
#include <cmath>

namespace osumac {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double SampleSet::Quantile(double q) const {
  OSUMAC_CHECK(!samples_.empty());
  OSUMAC_CHECK(q >= 0.0 && q <= 1.0);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (samples_.size() == 1) return samples_[0];
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double SampleSet::Sum() const {
  double s = 0.0;
  for (double x : samples_) s += x;
  return s;
}

double SampleSet::Mean() const {
  return samples_.empty() ? 0.0 : Sum() / static_cast<double>(samples_.size());
}

double SampleSet::Max() const {
  OSUMAC_CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double JainFairnessIndex(std::span<const double> allocations) {
  if (allocations.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double u : allocations) {
    sum += u;
    sum_sq += u * u;
  }
  if (sum_sq == 0.0) return 1.0;  // all-zero allocations are (vacuously) fair
  return (sum * sum) / (static_cast<double>(allocations.size()) * sum_sq);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  OSUMAC_CHECK_GT(hi, lo);
  OSUMAC_CHECK_GT(bins, 0u);
}

void Histogram::Add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::int64_t>(std::floor((x - lo_) / width));
  bin = std::clamp<std::int64_t>(bin, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_lower(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::CumulativeFractionAtOrBelow(double x) const {
  if (total_ == 0) return 0.0;
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double upper = lo_ + width * static_cast<double>(i + 1);
    if (upper - 1e-12 > x) break;
    cum += counts_[i];
  }
  return static_cast<double>(cum) / static_cast<double>(total_);
}

}  // namespace osumac
