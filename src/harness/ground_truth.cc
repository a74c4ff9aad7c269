#include "src/harness/ground_truth.h"

namespace themis {

void TallyReports(const std::vector<FailureReport>& reports, GroundTruthTally& tally) {
  for (const FailureReport& report : reports) {
    if (!report.IsTruePositive()) {
      ++tally.false_positive_reports;
      continue;
    }
    // De-duplicate by root cause; keep the earliest confirmation.
    for (const std::string& fault_id : report.active_faults) {
      auto [it, inserted] = tally.distinct_failures.emplace(fault_id, report.confirmed_at);
      if (!inserted && report.confirmed_at < it->second) {
        it->second = report.confirmed_at;
      }
    }
  }
}

}  // namespace themis
