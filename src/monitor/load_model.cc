#include "src/monitor/load_model.h"

#include <algorithm>

#include "src/common/strings.h"

namespace themis {

namespace {
// Below these per-window totals the component carries no signal; comparing
// noise-level rates would flood the detector with spurious ratios. The
// floors are in natural units; the aggregates are fixed-point ticks, so the
// comparisons scale by the matching quantum.
constexpr double kMinCpuMean = 0.5;   // virtual seconds per window
constexpr double kMinNetMean = 16.0;  // requests+ios per window

// Derives the per-component instant ratios from one window's aggregates.
// EMA fields are left at their defaults; Update folds those in.
LoadVarianceSnapshot FinalizeLoadStats(const LoadStatsSnapshot& stats) {
  LoadVarianceSnapshot snapshot;
  snapshot.any_crashed = stats.any_crashed;

  // Storage: utilization spread in fraction points between the hottest node
  // and the capacity-weighted fleet utilization, expressed as 1 + spread so
  // the detector's "ratio > 1 + t" test reads t as percentage points — the
  // semantics of real balancer thresholds (and the only spread a balancer
  // can drive to zero on heterogeneous-capacity clusters).
  if (stats.fraction_nodes >= 2 && stats.storage_cap > 0) {
    double fleet = static_cast<double>(stats.storage_used) /
                   static_cast<double>(stats.storage_cap);
    snapshot.storage_ratio = 1.0 + std::max(0.0, stats.max_fraction - fleet);
  } else {
    snapshot.storage_ratio = 1.0;
  }
  snapshot.instant_computation_ratio = std::max(
      stats.cpu_meta.MaxOverMeanWithFloor(kMinCpuMean * kCpuLoadQuantum),
      stats.cpu_storage.MaxOverMeanWithFloor(kMinCpuMean * kCpuLoadQuantum));
  snapshot.instant_network_ratio =
      std::max(stats.net_meta.MaxOverMeanWithFloor(kMinNetMean),
               stats.net_storage.MaxOverMeanWithFloor(kMinNetMean));
  return snapshot;
}
}  // namespace

double LoadVarianceSnapshot::Score(const LoadVarianceWeights& weights) const {
  double score = 0.0;
  score += weights.computation * std::max(0.0, computation_ratio - 1.0);
  score += weights.network * std::max(0.0, network_ratio - 1.0);
  score += weights.storage * std::max(0.0, storage_ratio - 1.0);
  return score;
}

double LoadVarianceSnapshot::MaxRatio() const {
  return std::max({storage_ratio, computation_ratio, network_ratio});
}

LoadStatsSnapshot LoadVarianceModel::ScanWindow(const std::vector<LoadSample>& samples) {
  LoadStatsSnapshot stats;
  for (const LoadSample& sample : samples) {
    // Difference against the node's previous sample, then rebase it — for
    // crashed and offline nodes too. Node ids are monotonic and never
    // reused, so entries for nodes absent from `samples` can only belong to
    // erased tombstones.
    if (previous_.size() <= sample.node) {
      previous_.resize(sample.node + 1);
    }
    PrevCounters& prev = previous_[sample.node];
    uint64_t net_total = sample.requests + sample.read_ios + sample.write_ios;
    double cpu_delta = sample.cpu_seconds;
    uint64_t net_delta = net_total;
    if (prev.valid) {
      cpu_delta = sample.cpu_seconds - prev.cpu_seconds;
      net_delta = net_total >= prev.net ? net_total - prev.net : 0;
    }
    prev = PrevCounters{sample.cpu_seconds, net_total, true};

    if (sample.crashed) {
      stats.any_crashed = true;
    }
    if (!sample.online || sample.crashed) {
      continue;
    }
    if (sample.is_storage && sample.capacity_bytes > 0) {
      double fraction = static_cast<double>(sample.used_bytes) /
                        static_cast<double>(sample.capacity_bytes);
      ++stats.fraction_nodes;
      if (stats.fraction_nodes == 1 || fraction > stats.max_fraction) {
        stats.max_fraction = fraction;
      }
      stats.storage_used += sample.used_bytes;
      stats.storage_cap += sample.capacity_bytes;
    }
    uint64_t cpu_ticks = QuantizeLoadDelta(cpu_delta, kCpuLoadQuantum);
    LoadDimAggregate& cpu_agg = sample.is_storage ? stats.cpu_storage : stats.cpu_meta;
    LoadDimAggregate& net_agg = sample.is_storage ? stats.net_storage : stats.net_meta;
    cpu_agg.sum += cpu_ticks;
    cpu_agg.max_delta = std::max(cpu_agg.max_delta, cpu_ticks);
    ++cpu_agg.count;
    net_agg.sum += net_delta;
    net_agg.max_delta = std::max(net_agg.max_delta, net_delta);
    ++net_agg.count;
  }
  return stats;
}

LoadVarianceSnapshot LoadVarianceModel::Update(const std::vector<LoadSample>& samples) {
  LoadVarianceSnapshot snapshot = FinalizeLoadStats(ScanWindow(samples));
  constexpr double kAlpha = 0.3;
  ema_computation_ = (1.0 - kAlpha) * ema_computation_ +
                     kAlpha * snapshot.instant_computation_ratio;
  ema_network_ = (1.0 - kAlpha) * ema_network_ + kAlpha * snapshot.instant_network_ratio;
  snapshot.computation_ratio = ema_computation_;
  snapshot.network_ratio = ema_network_;
  return snapshot;
}

void LoadVarianceModel::Reset() {
  previous_.clear();
  ema_computation_ = 1.0;
  ema_network_ = 1.0;
}

void LoadVarianceModel::SaveState(SnapshotWriter& writer) const {
  uint64_t count = 0;
  for (const PrevCounters& prev : previous_) {
    if (prev.valid) {
      ++count;
    }
  }
  writer.U64(count);
  for (NodeId id = 0; id < previous_.size(); ++id) {
    const PrevCounters& prev = previous_[id];
    if (!prev.valid) {
      continue;
    }
    writer.U32(id);
    writer.F64(prev.cpu_seconds);
    writer.U64(prev.net);
  }
  writer.F64(ema_computation_);
  writer.F64(ema_network_);
}

Status LoadVarianceModel::RestoreState(SnapshotReader& reader) {
  uint64_t count = reader.Count(4 + 8 + 8);
  previous_.clear();
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    NodeId node = reader.U32();
    PrevCounters prev;
    prev.cpu_seconds = reader.F64();
    prev.net = reader.U64();
    prev.valid = true;
    if (!reader.ok()) {
      break;
    }
    if (node > (1u << 24)) {  // dense index: a corrupt id must not OOM us
      reader.Fail(Sprintf("previous-window node id %u out of range", node));
      break;
    }
    if (previous_.size() <= node) {
      previous_.resize(node + 1);
    }
    previous_[node] = prev;
  }
  ema_computation_ = reader.F64();
  ema_network_ = reader.F64();
  return reader.status();
}

}  // namespace themis
