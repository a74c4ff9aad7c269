#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

namespace themis {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  double n1 = static_cast<double>(count_);
  double n2 = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  count_ += other.count_;
}

void RunningStat::Reset() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double RunningStat::variance() const {
  if (count_ == 0) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double LoadDimAggregate::Mean() const {
  if (count == 0) {
    return 0.0;
  }
  return static_cast<double>(sum) / static_cast<double>(count);
}

double LoadDimAggregate::MaxOverMeanWithFloor(double min_mean_ticks) const {
  if (count < 2) {
    return 1.0;
  }
  double mean = Mean();
  if (mean < min_mean_ticks) {
    return 1.0;
  }
  double ratio = static_cast<double>(max_delta) / mean;
  return ratio < 1.0 ? 1.0 : ratio;
}

double MaxOverMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  double max = values.front();
  for (double v : values) {
    sum += v;
    max = std::max(max, v);
  }
  double mean = sum / static_cast<double>(values.size());
  if (mean <= 0.0) {
    return 0.0;
  }
  return max / mean;
}

double MaxSpread(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  return *max_it - *min_it;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  p = std::clamp(p, 0.0, 1.0);
  double rank = p * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace themis
