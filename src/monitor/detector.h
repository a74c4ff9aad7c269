// The Imbalance Detector (paper Fig. 9).
//
// Three anomaly detectors assess the computation, network and storage
// variance ratios against the threshold t: a Load Imbalanced State is
// declared when max(load)/mean(load) exceeds 1 + t for any component (§2.2),
// persistently across consecutive checks. A crashed node is an immediate
// candidate. Candidates are *not* failures: the executor runs the
// double-check protocol (rebalance API -> wait for 'rebalance done' ->
// re-execute the test case -> re-check) to weed out false positives.

#ifndef SRC_MONITOR_DETECTOR_H_
#define SRC_MONITOR_DETECTOR_H_

#include <optional>
#include <string>

#include "src/monitor/load_model.h"
#include "src/telemetry/event_log.h"

namespace themis {

enum class ImbalanceDimension : uint8_t {
  kStorage = 0,
  kComputation,
  kNetwork,
  kNodeHealth,  // crash signal
  // Crash-recovery double-check (DESIGN.md §14): the cluster recovered from
  // an environment crash+restart — every node back up, interrupted round
  // re-run — and still settled outside LBS. The detector never emits this;
  // the executor rewrites a confirmed candidate's dimension after waiting
  // out the recovery window, marking "recovers to non-LBS" as its own
  // failure kind.
  kCrashRecovery,
};

const char* ImbalanceDimensionName(ImbalanceDimension dimension);

struct DetectorConfig {
  // The variance threshold t. 25% is the optimum found in §6.4 (Table 7).
  double threshold = 0.25;
};

struct ImbalanceCandidate {
  ImbalanceDimension dimension = ImbalanceDimension::kStorage;
  double ratio = 1.0;
};

class ImbalanceDetector {
 public:
  // Consecutive imbalanced checks before raising a candidate; rides out
  // transient variance the balancer has not had a chance to absorb yet.
  static constexpr int kConsecutiveNeeded = 3;

  explicit ImbalanceDetector(DetectorConfig config);

  const DetectorConfig& config() const { return config_; }

  // Evaluates one snapshot; returns a candidate once the imbalance has
  // persisted for kConsecutiveNeeded checks (crashes immediately).
  std::optional<ImbalanceCandidate> Check(const LoadVarianceSnapshot& snapshot);

  // Single-shot evaluation (used for the post-rebalance re-check).
  std::optional<ImbalanceCandidate> CheckOnce(const LoadVarianceSnapshot& snapshot) const;

  void ResetStreak() { streak_ = 0; }

  // Checkpointing (DESIGN.md §11): only the consecutive-imbalance streak is
  // state; the config is rebuilt from the campaign configuration.
  void SaveState(SnapshotWriter& writer) const { writer.I64(streak_); }
  Status RestoreState(SnapshotReader& reader) {
    streak_ = static_cast<int>(reader.I64());
    return reader.status();
  }

  // Campaign event sink for verdict telemetry; null disables recording.
  void set_telemetry(EventLog* telemetry) { telemetry_ = telemetry; }

 private:
  std::optional<ImbalanceCandidate> Evaluate(const LoadVarianceSnapshot& snapshot,
                                             bool use_instant) const;

  DetectorConfig config_;
  int streak_ = 0;
  EventLog* telemetry_ = nullptr;
};

}  // namespace themis

#endif  // SRC_MONITOR_DETECTOR_H_
