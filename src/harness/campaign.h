// Campaign harness: wires a flavor cluster, a fault registry, the coverage
// recorder, the monitor/detector stack, the executor and one generation
// strategy, then runs the testing loop for a virtual time budget (the
// paper's 24-hour experiments). Produces everything the evaluation tables
// need: confirmed failures (labeled TP/FP against ground truth), distinct
// root causes, trigger times and the coverage timeline.
//
// Strategies are resolved by name through the StrategyRegistry; the
// StrategyKind enum survives only as a compatibility shim over the names.
// Construction is validated: Run() returns a Result and never crashes on a
// bad config, so the parallel runner can report per-job errors.

#ifndef SRC_HARNESS_CAMPAIGN_H_
#define SRC_HARNESS_CAMPAIGN_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/executor.h"
#include "src/core/strategy.h"
#include "src/core/strategy_registry.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/fault_registry.h"
#include "src/faults/historical_corpus.h"
#include "src/harness/ground_truth.h"
#include "src/monitor/detector.h"
#include "src/telemetry/event_log.h"

namespace themis {

// Compatibility shim over the registry's strategy names. New strategies
// should be addressed by name; nothing below the harness dispatches on the
// enum any more.
enum class StrategyKind : uint8_t {
  kThemis = 0,
  kThemisMinus,
  kFixReq,
  kFixConf,
  kAlternate,
  kConcurrent,
};

// The registry name the kind maps to ("Themis", "Fix_req", ...).
const char* StrategyKindName(StrategyKind kind);

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
  // multiple of that op count. Snapshot writing never draws from the RNG
  // and mutates no campaign state, so checkpointing cannot change results.
  std::string checkpoint_dir;
  uint64_t checkpoint_every_ops = 0;
  // Before running, load the newest valid snapshot for this job from
  // checkpoint_dir (corrupt or mismatched snapshots are skipped with a
  // warning). A final snapshot short-circuits to its stored result; a
  // mid-campaign snapshot continues the interrupted run bit-identically.
  bool resume = false;
  // Mid-campaign snapshots retained per job (older ones are pruned).
  int checkpoint_keep = 3;
  // Which runner job this campaign is, for snapshot file naming.
  size_t job_index = 0;
  // Crash-test hook: abort with FailedPrecondition right after this many
  // mid-campaign snapshots have been written by THIS process (counts reset
  // on resume) — the in-process stand-in for SIGKILL-at-a-checkpoint.
  int halt_after_checkpoints = 0;

  // Rejects configurations no campaign can meaningfully run: non-positive
  // budget or sample period, zero nodes, threshold <= 0, negative initial
  // population, degenerate variance weights, or checkpoint options without
  // a checkpoint directory. FaultSet::kNone is valid — it is the designated
  // false-positive study mode.
  Status Validate() const;
};

// Per-test-case progress snapshot handed to a CampaignLoopObserver.
struct CampaignTick {
  uint64_t total_ops = 0;
  int testcases = 0;
  size_t coverage = 0;             // branch-coverage hits so far
  size_t transition_coverage = 0;  // distinct balancer transition pairs
  SimTime now{};                   // virtual clock
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
  // The covered pairs themselves, ascending (from, to), so callers can union
  // coverage across jobs. Like transition_coverage, outside Digest().
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

class Campaign {
 public:
  explicit Campaign(CampaignConfig config);

  // Runs one campaign with the named strategy from the StrategyRegistry.
  // Fails (without crashing) on an invalid config or unknown strategy.
  Result<CampaignResult> Run(std::string_view strategy_name);

  // Compatibility shim for enum-based callers.
  Result<CampaignResult> Run(StrategyKind kind) { return Run(StrategyKindName(kind)); }

  // Attach a per-test-case observer (see CampaignLoopObserver). Not owned;
  // must outlive Run(). Null restores the default no-op.
  void set_loop_observer(CampaignLoopObserver* observer) {
    loop_observer_ = observer;
  }

 private:
  std::vector<FaultSpec> FaultsForConfig() const;

  CampaignConfig config_;
  CampaignLoopObserver* loop_observer_ = nullptr;
};

// Convenience: run one (strategy, flavor) campaign with defaults.
Result<CampaignResult> RunCampaign(std::string_view strategy_name, Flavor flavor,
                                   uint64_t seed, SimDuration budget = Hours(24),
                                   FaultSet fault_set = FaultSet::kNewBugs);
Result<CampaignResult> RunCampaign(StrategyKind kind, Flavor flavor, uint64_t seed,
                                   SimDuration budget = Hours(24),
                                   FaultSet fault_set = FaultSet::kNewBugs);

}  // namespace themis

#endif  // SRC_HARNESS_CAMPAIGN_H_
