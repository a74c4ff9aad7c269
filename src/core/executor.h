// Test-case execution + the double-check protocol (§4.3).
//
// The executor drives one operation sequence through the DFS, samples the
// load state, and — when the anomaly detectors raise a candidate — performs
// the false-positive filter: call the rebalance API, wait for 'rebalance
// done' (or time out), re-execute the test case, and re-check the load
// state. Confirmed failures reset the DFS to its initial state, exactly as
// the paper's workflow (Fig. 6, step 9) prescribes.

#ifndef SRC_CORE_EXECUTOR_H_
#define SRC_CORE_EXECUTOR_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/core/opseq.h"
#include "src/coverage/coverage.h"
#include "src/coverage/model_coverage.h"
#include "src/dfs/cluster.h"
#include "src/faults/injector.h"
#include "src/monitor/detector.h"
#include "src/monitor/states_monitor.h"
#include "src/telemetry/event_log.h"

namespace themis {

// A confirmed imbalance failure report (reproduction log + labels).
struct FailureReport {
  ImbalanceDimension dimension = ImbalanceDimension::kStorage;
  double ratio = 1.0;
  SimTime confirmed_at = 0;
  OpSeq testcase;  // reproduction log: the sequence that exposed it
  // Ground-truth labels filled from the injector (the harness's analogue of
  // the paper's manual root-cause confirmation with maintainers).
  std::vector<std::string> active_faults;
  bool rebalance_hung = false;
  // Human-readable load state at confirmation (diagnosis aid).
  std::string detail;

  bool IsTruePositive() const { return !active_faults.empty(); }
  // Dedup key: failures sharing a root cause are duplicates (§5).
  std::string DedupKey() const;
};

struct ExecOutcome {
  double variance_score = 0.0;  // LVM score after execution
  double variance_gain = 0.0;   // vs. the previous test case
  size_t new_coverage = 0;      // branches newly hit by this test case
  size_t new_transitions = 0;   // balancer transition pairs newly covered
  int candidates = 0;           // detector candidates raised by this case
  int ops_executed = 0;
  int ops_ok = 0;
  std::vector<FailureReport> failures;  // confirmed (post double-check)
};

class TestCaseExecutor {
 public:
  TestCaseExecutor(DfsInterface& dfs, InputModel& model, StatesMonitor& monitor,
                   ImbalanceDetector& detector, FaultInjector* ground_truth,
                   CoverageRecorder* coverage, Rng& rng,
                   EventLog* telemetry = nullptr);

  // Balancer state-machine coverage (DESIGN.md §16); null disables the
  // transition delta in ExecOutcome. The recorder is read-only here — the
  // cluster emits the transitions.
  void set_model_coverage(ModelCoverage* model_coverage) {
    model_coverage_ = model_coverage;
  }

  // Executes `seq`, checks for imbalance, double-checks candidates, and
  // resets the DFS after a confirmed failure.
  ExecOutcome Run(const OpSeq& seq);

  // Seeds the cluster with an initial population of files ("during the
  // initialization process, Themis randomly generates a large number of
  // files", §7).
  void SeedInitialData(OpSeqGenerator& generator, int files);

  uint64_t total_ops() const { return total_ops_; }
  int candidates_raised() const { return candidates_raised_; }

  // Checkpointing (DESIGN.md §11): the running counters and the previous
  // variance score (the baseline the next outcome's gain is computed from).
  // All referenced components are restored separately.
  void SaveState(SnapshotWriter& writer) const {
    writer.F64(last_score_);
    writer.U64(total_ops_);
    writer.I64(candidates_raised_);
  }
  Status RestoreState(SnapshotReader& reader) {
    last_score_ = reader.F64();
    total_ops_ = reader.U64();
    candidates_raised_ = static_cast<int>(reader.I64());
    return reader.status();
  }

 private:
  // Metadata-only probe burst used by the post-rebalance re-check.
  static constexpr int kProbeOps = 64;
  // How long the double-check waits for 'rebalance done' (and for a pending
  // env-fault restart). Generous: a healthy cluster can owe terabytes of
  // queued recovery traffic, and a slow drain is not a hang.
  static constexpr SimDuration kRebalanceTimeout = Hours(2);
  // Polling step while waiting.
  static constexpr SimDuration kPollInterval = Seconds(10);

  // Runs the rebalance-and-recheck protocol. Returns the confirmed report if
  // the candidate survives.
  bool DoubleCheck(const OpSeq& seq, const ImbalanceCandidate& candidate,
                   FailureReport& report);
  // Polls until 'rebalance done' or timeout; records the convergence
  // iteration count as a telemetry event.
  bool WaitForRebalanceDone();
  // Crash-recovery double-check (DESIGN.md §14): waits out any pending
  // environment crash+restart (scheduled restarts are bounded well inside
  // the rebalance timeout). Returns true iff there was a recovery to wait
  // for — the signal that a surviving candidate is a kCrashRecovery failure.
  bool WaitForEnvRecovery();
  // Drains in-flight migration, issues a fresh rebalance, waits again.
  bool RebalanceAndWait();
  void RunProbeWorkload();
  // Removes the probe burst's directories once the settled window has been
  // sampled, so repeated re-checks don't grow the namespace without bound.
  void CleanupProbeDirs();
  void ExecuteOps(const OpSeq& seq, ExecOutcome* outcome);
  void HandleConfirmed(FailureReport& report, ExecOutcome& outcome);

  DfsInterface& dfs_;
  InputModel& model_;
  StatesMonitor& monitor_;
  ImbalanceDetector& detector_;
  FaultInjector* ground_truth_;  // may be null (healthy system)
  CoverageRecorder* coverage_;   // may be null
  ModelCoverage* model_coverage_ = nullptr;  // may be null
  Rng& rng_;
  EventLog* telemetry_;          // may be null (no event collection)

  double last_score_ = 0.0;
  // The mkdirs that created probe dirs since the last cleanup, in creation
  // order. Entry k made slot k (InputModel::ProbeDirName): the live probe
  // dirs hold exactly the slots below size(), so the next slot's name is
  // free under every parent. Cleanup re-executes them as rmdirs, reusing
  // their path caches. Always drained before the next test case executes,
  // so never serialized.
  std::vector<Operation> probe_dirs_;
  uint64_t total_ops_ = 0;
  int candidates_raised_ = 0;
};

}  // namespace themis

#endif  // SRC_CORE_EXECUTOR_H_
