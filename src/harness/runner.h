// The parallel campaign engine.
//
// A CampaignMatrix declares the evaluation grid — flavors x strategies x
// repeated seeds x optional threshold / variance-weight sweep axes — exactly
// the shape of the paper's Tables 3-8. CampaignRunner::Expand turns the
// matrix into independent CampaignJobs; RunJobs runs them on `jobs` threads
// that claim job indices from one shared counter.
//
// Determinism guarantee: job `i` of the canonical expansion order draws its
// campaign seed from Rng::SplitSeed(matrix_seed, i), and every job builds its
// own cluster, strategy, detector stack and RNG stream. Results are therefore
// bit-identical regardless of --jobs count, scheduling order, or the order
// the job vector is handed to RunJobs in (the stream index travels with the
// job, not with its position).

#ifndef SRC_HARNESS_RUNNER_H_
#define SRC_HARNESS_RUNNER_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/harness/campaign.h"

namespace themis {

// Declarative description of a campaign grid. Axes left empty fall back to
// the corresponding `base` field, so a plain single-campaign matrix is just
// {flavors={f}, strategies={"Themis"}}.
struct CampaignMatrix {
  std::vector<Flavor> flavors = {Flavor::kGluster};
  std::vector<std::string> strategies = {"Themis"};
  int seeds = 1;                 // repetitions per grid point
  uint64_t matrix_seed = 1234;   // root of every job's RNG stream

  // Per-campaign defaults (budget, fault set, node counts, ...). The seed
  // field of `base` is ignored: job seeds always derive from matrix_seed.
  CampaignConfig base;

  // Sweep axes; empty means "base value only".
  std::vector<double> thresholds;                // Table 7
  std::vector<LoadVarianceWeights> weight_sets;  // Table 8
};

// One fully-resolved cell of the expanded matrix.
struct CampaignJob {
  size_t index = 0;        // canonical expansion index; names the RNG stream
  std::string strategy;    // registry name
  int repetition = 0;      // seed repetition within the grid point
  CampaignConfig config;   // resolved config, seed already derived
};

// Outcome of one job. `result` is meaningful only when `status.ok()`:
// validation failures and unknown strategies are reported here per job
// without aborting the rest of the matrix.
struct JobResult {
  CampaignJob job;
  Status status;
  CampaignResult result;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  // thread CPU time of the executing worker
};

// Per-strategy (and overall) roll-up across jobs, enough to print the
// evaluation tables in one pass over a MatrixResult.
struct MatrixRollup {
  int jobs = 0;
  int failed_jobs = 0;
  // Root-cause id -> earliest confirmation across the rolled-up jobs.
  std::map<std::string, SimTime> distinct_failures;
  int false_positives = 0;
  uint64_t total_ops = 0;

  int DistinctTruePositives() const {
    return static_cast<int>(distinct_failures.size());
  }
};

struct MatrixResult {
  // One entry per job, in the order the jobs were passed to RunJobs (for
  // Run(matrix): canonical expansion order).
  std::vector<JobResult> jobs;
  std::map<std::string, MatrixRollup> by_strategy;
  MatrixRollup overall;
  double wall_seconds = 0.0;
  int threads = 1;  // threads started: at most one per job

  int FailedJobs() const { return overall.failed_jobs; }
};

struct RunnerOptions {
  int jobs = 1;  // worker threads (at least one); campaigns run jobs-wide in parallel
  // When non-empty, every job runs with collect_telemetry enabled and the
  // full event stream plus per-job job_summary records are written here as
  // JSONL after the matrix completes (see telemetry_export.h). The event
  // lines are byte-identical for any `jobs` value.
  std::string telemetry_out;
  // When non-empty, the deterministic campaign summary (per-job digests and
  // result counters, no wall-clock fields — see RenderCampaignSummaryJson)
  // is written here after the matrix completes.
  std::string summary_json;
  // Attached to every campaign via Campaign::set_loop_observer. Not owned;
  // must outlive the runner call. With jobs > 1 the same observer is invoked
  // from several runner threads concurrently, so it must then be thread-safe.
  // Observing never changes a job's result or digest.
  CampaignLoopObserver* loop_observer = nullptr;
};

class CampaignRunner {
 public:
  using Options = RunnerOptions;

  explicit CampaignRunner(RunnerOptions options = RunnerOptions());

  // Expands the matrix into jobs in canonical order: strategy-major, then
  // flavor, threshold, weight set, repetition. Each job's campaign seed is
  // Rng::SplitSeed(matrix.matrix_seed, job.index).
  static std::vector<CampaignJob> Expand(const CampaignMatrix& matrix);

  MatrixResult Run(const CampaignMatrix& matrix);

  // Runs an explicit job list (already expanded, possibly filtered or
  // permuted). Per-job results land at the same position as the job. Jobs
  // checkpoint per their own config (DESIGN.md §11) under their own
  // job-<index>-*.ckpt names.
  MatrixResult RunJobs(const std::vector<CampaignJob>& jobs);

 private:
  RunnerOptions options_;
};

}  // namespace themis

#endif  // SRC_HARNESS_RUNNER_H_
