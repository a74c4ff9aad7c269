#include "src/monitor/states_monitor.h"

namespace themis {

StatesMonitor::StatesMonitor(LoadVarianceWeights weights) : weights_(weights) {}

LoadVarianceSnapshot StatesMonitor::Sample(const DfsInterface& dfs) {
  dfs.SampleLoadInto(sample_scratch_);
  return model_.Update(sample_scratch_);
}

void StatesMonitor::ResetWindow() { model_.Reset(); }

void StatesMonitor::SaveState(SnapshotWriter& writer) const { model_.SaveState(writer); }

Status StatesMonitor::RestoreState(SnapshotReader& reader) {
  return model_.RestoreState(reader);
}

}  // namespace themis
