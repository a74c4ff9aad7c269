// Statistics helpers used by the load models and by the imbalance detector.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/clock.h"

namespace themis {

// ---------------------------------------------------------------------------
// Load-stats aggregates: what one differencing scan of per-node load samples
// reduces to (LoadVarianceModel::Update). CPU deltas are quantized to fixed
// point before they are summed; the pinned campaign digests depend on the
// exact ratios this quantization produces.

// CPU-seconds fixed-point scale: 2^-20 s resolution (~1 µs of virtual CPU).
inline constexpr double kCpuLoadQuantum = 1048576.0;  // 2^20 ticks / second

// Rounds a non-negative rate delta to fixed-point ticks.
inline uint64_t QuantizeLoadDelta(double delta, double quantum) {
  return delta <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(delta * quantum));
}

// Per-dimension, per-node-group window aggregate in fixed-point ticks.
struct LoadDimAggregate {
  uint64_t sum = 0;        // Σ delta, ticks
  uint64_t max_delta = 0;  // max over the group's members, ticks
  uint32_t count = 0;      // group size (serving nodes, zero deltas included)

  double Mean() const;  // ticks; 0 for an empty group
  // max/mean with the no-signal floor (both in ticks): groups smaller than
  // two or with a sub-floor mean read as perfectly even (ratio 1).
  double MaxOverMeanWithFloor(double min_mean_ticks) const;
};

// One window's aggregate reading — everything the load variance model needs
// to produce a LoadVarianceSnapshot.
struct LoadStatsSnapshot {
  SimTime taken_at = 0;

  // Windowed-rate dimensions, split by node group (management vs storage).
  LoadDimAggregate cpu_storage;
  LoadDimAggregate cpu_meta;
  LoadDimAggregate net_storage;
  LoadDimAggregate net_meta;

  // Storage dimension: utilization fractions over serving storage nodes
  // with online capacity; max/fleet are the ratio inputs.
  uint32_t fraction_nodes = 0;
  double max_fraction = 0.0;
  uint64_t storage_used = 0;  // Σ used_bytes over fraction_nodes
  uint64_t storage_cap = 0;   // Σ capacity_bytes over fraction_nodes

  uint32_t serving_storage_nodes = 0;
  bool any_crashed = false;
};

// Welford streaming mean/variance with min/max tracking.
class RunningStat {
 public:
  void Add(double x);
  void Reset();

  // Folds another stat into this one (Chan et al. parallel combine), so
  // per-thread partials can be merged into a campaign-matrix roll-up.
  void Merge(const RunningStat& other);

  size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Mutex-guarded RunningStat for aggregation across campaign-runner worker
// threads. Writers call Add/Merge concurrently; readers take a Snapshot once
// the jobs they care about have completed.
class ConcurrentRunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& partial);
  RunningStat Snapshot() const;

 private:
  mutable std::mutex mu_;
  RunningStat stat_;
};

// max(values) / mean(values); 0 if the series is empty or the mean is 0.
// This is the "MAX / (1/n)*SUM" quantity of the paper's LBS definition.
double MaxOverMean(const std::vector<double>& values);

// Largest pairwise absolute difference, i.e. max - min.
double MaxSpread(const std::vector<double>& values);

// Arithmetic mean; 0 for an empty series.
double Mean(const std::vector<double>& values);

// p in [0, 1]; linear-interpolated percentile of a copy of `values`.
double Percentile(std::vector<double> values, double p);

}  // namespace themis

#endif  // SRC_COMMON_STATS_H_
