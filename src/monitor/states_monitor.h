// The States Monitor (paper Fig. 9): observes the DFS's load data once per
// executed test case and feeds it to the Load Variance Model.
//
// Each Sample() scans every node's cumulative counters through
// DfsInterface::SampleLoadInto; the model differences them against the
// previous scan, so the sampling window lives entirely in the model.

#ifndef SRC_MONITOR_STATES_MONITOR_H_
#define SRC_MONITOR_STATES_MONITOR_H_

#include <vector>

#include "src/dfs/cluster.h"
#include "src/monitor/load_model.h"

namespace themis {

class StatesMonitor {
 public:
  explicit StatesMonitor(LoadVarianceWeights weights);

  // Scans the DFS and folds the reading into the variance model, closing
  // the sampling window.
  LoadVarianceSnapshot Sample(const DfsInterface& dfs);

  const LoadVarianceWeights& weights() const { return weights_; }

  // Forgets windowed state after a cluster reset.
  void ResetWindow();

  // Checkpointing (DESIGN.md §11): the variance model's window and EMA
  // state — everything the next Sample() depends on.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  LoadVarianceWeights weights_;
  LoadVarianceModel model_;
  std::vector<LoadSample> sample_scratch_;  // reused across scans
};

}  // namespace themis

#endif  // SRC_MONITOR_STATES_MONITOR_H_
