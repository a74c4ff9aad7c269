// Ground-truth labeling: maps confirmed failure reports to injected faults,
// deduplicates by root cause, and counts false positives. This is the
// harness's analogue of the paper's manual reproduce-diagnose-deduplicate
// step (§5) — it runs *after* detection and never influences it.

#ifndef SRC_HARNESS_GROUND_TRUTH_H_
#define SRC_HARNESS_GROUND_TRUTH_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/executor.h"

namespace themis {

struct GroundTruthTally {
  // Root-cause id -> first confirmation time.
  std::map<std::string, SimTime> distinct_failures;
  int false_positive_reports = 0;
};

// Folds a batch of confirmed reports into the tally.
void TallyReports(const std::vector<FailureReport>& reports, GroundTruthTally& tally);

}  // namespace themis

#endif  // SRC_HARNESS_GROUND_TRUTH_H_
