// The Load Variance Model (paper Fig. 8).
//
// Node load data has three components: computation (CPU), network (requests
// + read/write IOs) and storage. Cumulative counters are differenced against
// the previous sampling window to obtain rates; each component's imbalance
// is summarized as max/mean across the relevant node group (the LBS quantity
// of §2.2), and the weighted combination is the variance score that guides
// the fuzzer.

#ifndef SRC_MONITOR_LOAD_MODEL_H_
#define SRC_MONITOR_LOAD_MODEL_H_

#include <vector>

#include "src/common/clock.h"
#include "src/common/snapshot_io.h"
#include "src/common/stats.h"
#include "src/dfs/load_sample.h"

namespace themis {

// Weighting factors of the three variance components (§7, Table 8 sweeps the
// storage weight). Defaults to the paper's 1/3 each.
struct LoadVarianceWeights {
  double computation = 1.0 / 3.0;
  double network = 1.0 / 3.0;
  double storage = 1.0 / 3.0;
};

struct LoadVarianceSnapshot {
  SimTime taken_at = 0;
  // Per-component imbalance, each expressed so the detector's test
  // "ratio > 1 + t" is meaningful (1.0 = perfectly even).
  //  - storage: 1 + utilization spread (max - mean, fraction points) —
  //    the percentage-point semantics of real balancer thresholds;
  //  - computation / network: max/mean of windowed rates, compared within
  //    node groups (management vs storage) and reporting the worse group.
  double storage_ratio = 1.0;
  // Smoothed (EMA) ratios: stable under bursty per-window rates; persistent
  // skew (a faulty node absorbing every request) keeps them elevated, while
  // one heavy write burst decays away. These drive fuzzing guidance and the
  // detector's streak check.
  double computation_ratio = 1.0;
  double network_ratio = 1.0;
  // Raw single-window ratios: what a clean probe window shows. The
  // double-check's post-rebalance re-check uses these.
  double instant_computation_ratio = 1.0;
  double instant_network_ratio = 1.0;
  bool any_crashed = false;
  int serving_storage_nodes = 0;

  // Weighted variance score used as fuzzing feedback: sum of w_i * (ratio-1).
  double Score(const LoadVarianceWeights& weights) const;
  // The largest component ratio (what the anomaly detectors test against t).
  double MaxRatio() const;

  bool operator==(const LoadVarianceSnapshot&) const = default;
};

class LoadVarianceModel {
 public:
  LoadVarianceModel() = default;

  // Folds one scan of cumulative per-node samples into the model: each
  // node's counters are differenced against its previous sample (a node
  // without one counts from zero), the window's ratios are folded into the
  // EMA state, and `samples` become the next window's base.
  LoadVarianceSnapshot Update(const std::vector<LoadSample>& samples);

  // Forgets the previous window (after a cluster reset).
  void Reset();

  // Checkpointing (DESIGN.md §11): the previous sampling window and the EMA
  // accumulators — everything the next Update() differences against.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  // Aggregates `samples` into this window's deltas and rebases previous_.
  LoadStatsSnapshot ScanWindow(const std::vector<LoadSample>& samples);

  // Previous-window cumulative counters, dense by NodeId (ids are small and
  // monotonic — the same flat-index idiom as the cluster's node indexes).
  struct PrevCounters {
    double cpu_seconds = 0.0;
    uint64_t net = 0;  // requests + read_ios + write_ios
    bool valid = false;
  };
  std::vector<PrevCounters> previous_;
  double ema_computation_ = 1.0;
  double ema_network_ = 1.0;
};

}  // namespace themis

#endif  // SRC_MONITOR_LOAD_MODEL_H_
