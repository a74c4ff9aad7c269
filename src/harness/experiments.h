// Experiment drivers: one function per table / figure in the paper's
// evaluation (see DESIGN.md's per-experiment index). The bench binaries in
// bench/ call these and render the results; integration tests run them at
// reduced budgets.
//
// Aggregation: the paper states "all the experiments were conducted multiple
// times with the same environment setups". Each driver therefore runs
// `seeds` repeated campaigns per (tool, flavor) and a failure counts as
// found if any repetition confirmed it — applied uniformly to every tool.
//
// Every driver expands its grid into a CampaignMatrix and executes it on the
// parallel CampaignRunner (`budget.jobs` worker threads). Job seeds derive
// from per-driver RNG streams of `base_seed`, so results are identical
// across thread counts and job orderings.

#ifndef SRC_HARNESS_EXPERIMENTS_H_
#define SRC_HARNESS_EXPERIMENTS_H_

#include <array>
#include <map>
#include <string>
#include <vector>

#include "src/harness/campaign.h"
#include "src/harness/runner.h"

namespace themis {

inline constexpr std::array<Flavor, 4> kAllFlavors = {
    Flavor::kHdfs, Flavor::kCeph, Flavor::kGluster, Flavor::kLeo};

inline constexpr std::array<const char*, 5> kComparedStrategies = {
    "Themis", "Fix_req", "Fix_conf", "Alternate", "Concurrent"};

struct ExperimentBudget {
  SimDuration campaign = Hours(24);
  int seeds = 3;          // repeated campaigns per (tool, flavor)
  uint64_t base_seed = 1234;
  int jobs = 1;           // CampaignRunner worker threads
  // When non-empty, the driver's matrix writes its campaign event stream
  // here as JSONL (see RunnerOptions::telemetry_out).
  std::string telemetry_out;
};

// ---- Table 2 / Table 3: new imbalance failures ----
// Strategies are registry names ("Themis", "Fix_req", ...), and every
// result map is keyed by them.
struct NewBugFindings {
  // strategy -> set of new-bug ids found (union over repetitions).
  std::map<std::string, std::map<std::string, SimTime>> found;
  // strategy -> total false positives across all campaigns.
  std::map<std::string, int> false_positives;
};

NewBugFindings RunNewBugExperiment(const std::vector<std::string>& strategies,
                                   const ExperimentBudget& budget);

// ---- Table 4: historical failures reproduced ----
struct HistoricalFindings {
  // strategy -> flavor -> ids found.
  std::map<std::string, std::map<Flavor, std::vector<std::string>>> found;
};

HistoricalFindings RunHistoricalExperiment(const std::vector<std::string>& strategies,
                                           const ExperimentBudget& budget);

// ---- Table 5 / Figure 12: branch coverage ----
struct CoverageResults {
  // strategy -> flavor -> final branch count (averaged over seeds).
  std::map<std::string, std::map<Flavor, size_t>> final_coverage;
  // strategy -> flavor -> (minute, branches) timeline from the first seed.
  std::map<std::string, std::map<Flavor, std::vector<std::pair<SimTime, size_t>>>>
      timelines;
};

CoverageResults RunCoverageExperiment(const std::vector<std::string>& strategies,
                                      const ExperimentBudget& budget);

// ---- Table 6: Themis vs Themis⁻ ablation ----
struct AblationResults {
  std::map<Flavor, int> failures_minus;
  std::map<Flavor, int> failures_full;
  std::map<Flavor, size_t> coverage_minus;
  std::map<Flavor, size_t> coverage_full;
};

AblationResults RunAblationExperiment(const ExperimentBudget& budget);

// ---- Table 7: threshold t sweep ----
struct ThresholdSweepRow {
  double threshold = 0.25;
  int false_positives = 0;
  int true_positives = 0;  // distinct new bugs found across the 4 flavors
};

std::vector<ThresholdSweepRow> RunThresholdSweep(const std::vector<double>& thresholds,
                                                 const ExperimentBudget& budget);

// ---- Table 8: storage-variance weight sweep ----
struct WeightSweepRow {
  double storage_weight = 1.0 / 3.0;
  // Mean first-trigger time (virtual minutes) over storage-type new bugs
  // that were found; -1 when none were found.
  double mean_trigger_minutes = -1.0;
  int storage_bugs_found = 0;
};

std::vector<WeightSweepRow> RunWeightSweep(const std::vector<double>& storage_weights,
                                           const ExperimentBudget& budget);

// ---- Figure 2: per-node storage trace while reproducing failure #1 ----
struct AccumulationTrace {
  // One series per storage node: (virtual minute, used fraction).
  std::map<NodeId, std::vector<std::pair<double, double>>> node_series;
  // (virtual minute, max spread) line, mirroring the figure's line chart.
  std::vector<std::pair<double, double>> max_variance_series;
  bool failure_confirmed = false;
  SimTime confirmed_at = 0;
};

AccumulationTrace RunAccumulationTrace(uint64_t seed, SimDuration budget);

}  // namespace themis

#endif  // SRC_HARNESS_EXPERIMENTS_H_
