// Campaign harness: a CampaignSession wires a flavor cluster, a fault
// registry, the coverage recorders, the monitor/detector stack, the executor
// and one generation strategy, and steps the testing loop one test case at a
// time; Campaign::Run drives a session for a virtual time budget (the
// paper's 24-hour experiments). Produces everything the evaluation tables
// need: confirmed failures (labeled TP/FP against ground truth), distinct
// root causes, trigger times and the coverage timeline.
//
// Strategies are resolved by name through the StrategyRegistry.
// Construction is validated: Run() returns a Result and never crashes on a
// bad config, so the parallel runner can report per-job errors.

#ifndef SRC_HARNESS_CAMPAIGN_H_
#define SRC_HARNESS_CAMPAIGN_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/executor.h"
#include "src/core/strategy.h"
#include "src/core/strategy_registry.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/env_fault.h"
#include "src/faults/fault_registry.h"
#include "src/faults/historical_corpus.h"
#include "src/harness/ground_truth.h"
#include "src/monitor/detector.h"
#include "src/telemetry/event_log.h"

namespace themis {

enum class FaultSet : uint8_t {
  kNewBugs = 0,   // the 10 Table 2 failures for the flavor
  kHistorical,    // the 53-failure corpus subset for the flavor
  kNone,          // healthy system (false-positive studies)
};

struct CampaignConfig {
  Flavor flavor = Flavor::kGluster;
  uint64_t seed = 1;
  SimDuration budget = Hours(24);
  double threshold_t = 0.25;           // detector threshold (Table 7 sweeps)
  LoadVarianceWeights weights;         // variance weights (Table 8 sweeps)
  FaultSet fault_set = FaultSet::kNewBugs;
  int initial_files = 60;
  SimDuration coverage_sample_period = Minutes(1);
  int storage_nodes = 8;               // 10 nodes total, like the paper
  int meta_nodes = 2;
  // Environment-fault dimension (DESIGN.md §14). When true, the generator
  // draws env_fault operators (kEnvFaultShare of ops), an EnvFaultInjector
  // is attached to the cluster, and the env-gated bug registry joins the
  // fault set. False keeps the fault-free grammar, RNG draw sequence and
  // digests bit-identical to campaigns that predate the fault dimension.
  bool env_faults = false;
  // Collect per-campaign telemetry events into CampaignResult::telemetry.
  // Off by default: long matrices would otherwise hold every job's event
  // stream in memory at once. Recording never draws from the RNG, so this
  // flag cannot change any campaign result.
  bool collect_telemetry = false;
  // Seed energy per newly covered balancer state-machine transition pair
  // (DESIGN.md §16). 0.0 (the default) makes the second feedback signal
  // purely observational: transitions are still recorded (and reported),
  // but energy assignment — and therefore every campaign digest — stays
  // bit-identical to the pure load-variance signal.
  double transition_weight = 0.0;

  // Checkpointing (DESIGN.md §11). Empty checkpoint_dir disables snapshots
  // entirely. With a directory set, a final snapshot is written when the
  // campaign completes; checkpoint_every_ops > 0 additionally writes a
  // mid-campaign snapshot at the first test-case boundary after each
  // multiple of that op count (the newest kMidSnapshotsKept are retained).
  // Snapshot writing never draws from the RNG and mutates no campaign
  // state, so checkpointing cannot change results.
  std::string checkpoint_dir;
  uint64_t checkpoint_every_ops = 0;
  // Before running, load the newest valid snapshot for this job from
  // checkpoint_dir (corrupt or mismatched snapshots are skipped with a
  // warning). A final snapshot short-circuits to its stored result; a
  // mid-campaign snapshot continues the interrupted run bit-identically.
  bool resume = false;
  // Which runner job this campaign is, for snapshot file naming.
  size_t job_index = 0;

  // Rejects configurations no campaign can meaningfully run: non-positive
  // budget or sample period, zero nodes, a threshold that is not a finite
  // value > 0, negative initial population, non-finite or degenerate
  // variance weights, or checkpoint options without a checkpoint directory.
  // FaultSet::kNone is valid — it is the designated false-positive study
  // mode.
  Status Validate() const;
};

// Per-test-case progress snapshot handed to a CampaignLoopObserver.
struct CampaignTick {
  uint64_t total_ops = 0;
  int testcases = 0;
  size_t coverage = 0;  // branch-coverage hits so far
  SimTime now{};        // virtual clock
};

// Per-test-case loop hook: called once per completed test case, after the
// strategy saw its outcome and before any checkpoint for that boundary is
// written, so a checkpoint captures whatever the observer did and a resumed
// run does not replay it. Observers may time or count the loop (the campaign
// benchmark does); they must not touch the campaign RNG or cluster, so an
// observed campaign produces the same result and digest as an unobserved
// one. A null observer (the default) skips the call entirely.
class CampaignLoopObserver {
 public:
  virtual ~CampaignLoopObserver() = default;
  virtual void OnTestcase(Strategy& strategy, const ExecOutcome& outcome,
                          const CampaignTick& tick) = 0;
};

struct CampaignResult {
  std::string strategy_name;
  Flavor flavor = Flavor::kGluster;
  // All confirmed reports in order (true and false positives).
  std::vector<FailureReport> reports;
  // Distinct true failures by root-cause id, with first confirmation time.
  std::map<std::string, SimTime> distinct_failures;
  int false_positives = 0;
  size_t final_coverage = 0;
  // Distinct balancer state-machine transition pairs covered (DESIGN.md
  // §16). Reported in summaries/benches; deliberately OUTSIDE Digest() so
  // attaching the recorder cannot perturb pinned digests.
  size_t transition_coverage = 0;
  // The covered pairs themselves, ascending (from, to); like
  // transition_coverage, outside Digest(). No campaign reads it back: it
  // stays because campaign_bench/traced_campaign.cc fills it, and the
  // resume tests compare it.
  std::vector<std::pair<uint8_t, uint8_t>> transition_pairs;
  // (virtual time, branches hit) sampled once per coverage_sample_period.
  std::vector<std::pair<SimTime, size_t>> coverage_timeline;
  uint64_t total_ops = 0;
  int testcases = 0;
  int candidates = 0;
  // fault id -> (ops at which the trigger predicate held, trigger count).
  std::map<std::string, std::pair<uint64_t, int>> trigger_stats;
  // Campaign event stream (empty unless CampaignConfig::collect_telemetry).
  std::vector<CampaignEvent> telemetry;

  int DistinctTruePositives() const { return static_cast<int>(distinct_failures.size()); }
  bool Found(const std::string& fault_id) const {
    return distinct_failures.count(fault_id) != 0;
  }

  // Order-stable 64-bit digest over every deterministic field (results,
  // timelines, reports, telemetry events) — two runs of the same job must
  // produce the same digest regardless of --jobs count or scheduling. Wall
  // and CPU time live outside CampaignResult and never enter the digest.
  uint64_t Digest() const;
};

// One campaign's parts, wired once and stepped one test case at a time
// through the paper's workflow (Fig. 6: generate → execute → monitor →
// double-check → reset). Every campaign loop — Campaign::Run, the Fig. 2
// trace, the hunt example, the tests — drives a session, so the wiring
// (seed salts, fault set, injectors, strategy options) exists only here.
// Neither copyable nor movable: the parts hold references to each other.
class CampaignSession {
 public:
  // A fresh session, or with config.resume the newest valid snapshot of
  // config.job_index in config.checkpoint_dir: the final snapshot, then mid
  // snapshots newest first. Each candidate restores into a freshly built
  // session, and one that fails anywhere is discarded whole, so neither the
  // next candidate nor the fresh fallback runs on half-restored parts.
  // Fails on an invalid config or unknown strategy.
  static Result<std::unique_ptr<CampaignSession>> Open(const CampaignConfig& config,
                                                       std::string_view strategy_name);

  CampaignSession(const CampaignSession&) = delete;
  CampaignSession& operator=(const CampaignSession&) = delete;

  // True once the virtual budget is spent, or when Open restored the
  // final snapshot.
  bool Done() const;
  // Runs one test case, then records its confirmed failures, the
  // ground-truth tally and any due coverage-timeline samples. Call only
  // while !Done().
  ExecOutcome Step();
  // At a step boundary: writes a mid snapshot when the op cadence is due
  // and reports whether it wrote one.
  Result<bool> Save();
  // Builds the result and writes the final snapshot. Call once, when Done().
  Result<CampaignResult> Finish();

  // Progress as a CampaignLoopObserver sees it.
  CampaignTick Tick() const;
  Strategy& strategy() { return *strategy_; }
  const DfsCluster& cluster() const { return *cluster_; }
  const FaultInjector& injector() const { return injector_; }
  const ModelCoverage& model_coverage() const { return model_coverage_; }

 private:
  // Loop progress and the partial result: the first part of the payload.
  struct Progress {
    uint64_t checkpoints_written = 0;  // mid snapshot ordinal, kept across resumes
    int testcases = 0;
    SimTime next_coverage_sample = 0;
    std::vector<FailureReport> reports;
    std::vector<std::pair<SimTime, size_t>> coverage_timeline;
    GroundTruthTally tally;

    void SaveState(SnapshotWriter& writer) const;
    Status RestoreState(SnapshotReader& reader);
  };

  CampaignSession(const CampaignConfig& config, std::string_view strategy_name);
  static Result<std::unique_ptr<CampaignSession>> Build(const CampaignConfig& config,
                                                        std::string_view strategy_name);
  // Calls `fn` on each part of the mid-snapshot payload, in the format's one
  // fixed order; saving and restoring both walk it.
  template <typename Self, typename Fn>
  static void ForEachPart(Self& self, Fn&& fn);
  // Loads the snapshot at `path` into this freshly built session.
  Status Restore(const std::string& path);
  void ScheduleNextCheckpoint();

  const CampaignConfig config_;
  const std::string strategy_name_;
  std::unique_ptr<DfsCluster> cluster_;
  CoverageRecorder coverage_;
  ModelCoverage model_coverage_;
  EventLog event_log_;
  FaultInjector injector_;
  EnvFaultInjector env_injector_;
  Rng rng_;
  InputModel model_;
  StatesMonitor monitor_;
  ImbalanceDetector detector_;
  std::optional<TestCaseExecutor> executor_;  // built once the cluster is wired
  std::unique_ptr<Strategy> strategy_;
  Progress progress_;
  uint64_t next_checkpoint_ops_ = 0;
  // Set when Open restored the final snapshot: the stored result, as-is.
  std::optional<CampaignResult> final_result_;
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig config);

  // Runs one campaign with the named strategy from the StrategyRegistry by
  // stepping a CampaignSession to the end of its budget. Fails (without
  // crashing) on an invalid config or unknown strategy.
  Result<CampaignResult> Run(std::string_view strategy_name);

  // Attach a per-test-case observer (see CampaignLoopObserver). Not owned;
  // must outlive Run(). Null restores the default no-op.
  void set_loop_observer(CampaignLoopObserver* observer) {
    loop_observer_ = observer;
  }

 private:
  CampaignConfig config_;
  CampaignLoopObserver* loop_observer_ = nullptr;
};

// Convenience: run one (strategy, flavor) campaign with defaults.
Result<CampaignResult> RunCampaign(std::string_view strategy_name, Flavor flavor,
                                   uint64_t seed, SimDuration budget = Hours(24),
                                   FaultSet fault_set = FaultSet::kNewBugs);

}  // namespace themis

#endif  // SRC_HARNESS_CAMPAIGN_H_
