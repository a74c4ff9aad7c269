#include "src/monitor/detector.h"

namespace themis {

const char* ImbalanceDimensionName(ImbalanceDimension dimension) {
  switch (dimension) {
    case ImbalanceDimension::kStorage:
      return "storage";
    case ImbalanceDimension::kComputation:
      return "computation";
    case ImbalanceDimension::kNetwork:
      return "network";
    case ImbalanceDimension::kNodeHealth:
      return "node-health";
    case ImbalanceDimension::kCrashRecovery:
      return "crash-recovery";
  }
  return "?";
}

ImbalanceDetector::ImbalanceDetector(DetectorConfig config) : config_(config) {}

std::optional<ImbalanceCandidate> ImbalanceDetector::Evaluate(
    const LoadVarianceSnapshot& snapshot, bool use_instant) const {
  if (snapshot.any_crashed) {
    return ImbalanceCandidate{ImbalanceDimension::kNodeHealth, snapshot.MaxRatio()};
  }
  double limit = 1.0 + config_.threshold;
  double computation =
      use_instant ? snapshot.instant_computation_ratio : snapshot.computation_ratio;
  double network = use_instant ? snapshot.instant_network_ratio : snapshot.network_ratio;
  ImbalanceDimension dimension = ImbalanceDimension::kStorage;
  double worst = snapshot.storage_ratio;
  if (computation > worst) {
    worst = computation;
    dimension = ImbalanceDimension::kComputation;
  }
  if (network > worst) {
    worst = network;
    dimension = ImbalanceDimension::kNetwork;
  }
  if (worst > limit) {
    return ImbalanceCandidate{dimension, worst};
  }
  return std::nullopt;
}

std::optional<ImbalanceCandidate> ImbalanceDetector::CheckOnce(
    const LoadVarianceSnapshot& snapshot) const {
  // Clean single-window evaluation (post-rebalance probe windows).
  std::optional<ImbalanceCandidate> verdict = Evaluate(snapshot, /*use_instant=*/true);
  if (telemetry_ != nullptr) {
    telemetry_->Record(CampaignEventKind::kDetectorVerdict,
                       verdict.has_value() ? ImbalanceDimensionName(verdict->dimension)
                                           : "none",
                       verdict.has_value() ? verdict->ratio : snapshot.MaxRatio());
  }
  return verdict;
}

std::optional<ImbalanceCandidate> ImbalanceDetector::Check(
    const LoadVarianceSnapshot& snapshot) {
  if (snapshot.any_crashed) {
    streak_ = 0;
    if (telemetry_ != nullptr) {
      telemetry_->Record(CampaignEventKind::kDetectorVerdict,
                         ImbalanceDimensionName(ImbalanceDimension::kNodeHealth),
                         snapshot.MaxRatio());
    }
    return ImbalanceCandidate{ImbalanceDimension::kNodeHealth, snapshot.MaxRatio()};
  }
  std::optional<ImbalanceCandidate> candidate = Evaluate(snapshot, /*use_instant=*/false);
  if (!candidate.has_value()) {
    streak_ = 0;
    return std::nullopt;
  }
  ++streak_;
  if (streak_ < kConsecutiveNeeded) {
    return std::nullopt;
  }
  // The imbalance persisted long enough: a candidate goes to double-check.
  if (telemetry_ != nullptr) {
    telemetry_->Record(CampaignEventKind::kDetectorVerdict,
                       ImbalanceDimensionName(candidate->dimension), candidate->ratio,
                       0.0, static_cast<uint64_t>(streak_));
  }
  streak_ = 0;
  return candidate;
}

}  // namespace themis
