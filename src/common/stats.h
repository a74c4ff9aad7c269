// Load-stats aggregates: what one differencing scan of per-node load samples
// reduces to (LoadVarianceModel::Update). CPU deltas are quantized to fixed
// point before they are summed; the pinned campaign digests depend on the
// exact ratios this quantization produces.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cmath>
#include <cstdint>

#include "src/common/clock.h"

namespace themis {

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

}  // namespace themis

#endif  // SRC_COMMON_STATS_H_
