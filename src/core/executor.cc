#include "src/core/executor.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"

namespace themis {

std::string FailureReport::DedupKey() const {
  if (active_faults.empty()) {
    return "";
  }
  // Failures sharing the same root cause are duplicates; key on the root
  // cause (the first active fault).
  return active_faults.front();
}

TestCaseExecutor::TestCaseExecutor(DfsInterface& dfs, InputModel& model,
                                   StatesMonitor& monitor, ImbalanceDetector& detector,
                                   FaultInjector* ground_truth,
                                   CoverageRecorder* coverage, Rng& rng,
                                   EventLog* telemetry)
    : dfs_(dfs), model_(model), monitor_(monitor), detector_(detector),
      ground_truth_(ground_truth), coverage_(coverage), rng_(rng),
      telemetry_(telemetry) {
  model_.SyncFromDfs(dfs_);
}

void TestCaseExecutor::SeedInitialData(OpSeqGenerator& generator, int files) {
  for (int i = 0; i < files; ++i) {
    Operation op = generator.GenerateOpOfKind(OpKind::kCreate, rng_);
    OpResult result = dfs_.Execute(op);
    model_.Observe(op, result);
    ++total_ops_;
  }
  model_.SyncFromDfs(dfs_);
  // Settle: close the seeding window so the first test case sees its own
  // deltas, not lifetime counters. Kept deliberately: besides re-basing, the
  // discarded sample folds one reading into the model's EMA (part of the
  // pinned campaign trajectory).
  (void)monitor_.Sample(dfs_);
  detector_.ResetStreak();
}

void TestCaseExecutor::ExecuteOps(const OpSeq& seq, ExecOutcome* outcome) {
  for (const Operation& op : seq.ops) {
    OpResult result = dfs_.Execute(op);
    model_.Observe(op, result);
    ++total_ops_;
    if (outcome != nullptr) {
      ++outcome->ops_executed;
      if (result.status.ok()) {
        ++outcome->ops_ok;
      }
    }
  }
  model_.SyncFromDfs(dfs_);
}

ExecOutcome TestCaseExecutor::Run(const OpSeq& seq) {
  ExecOutcome outcome;
  size_t coverage_before = coverage_ != nullptr ? coverage_->TotalHits() : 0;
  size_t transitions_before =
      model_coverage_ != nullptr ? model_coverage_->TransitionsCovered() : 0;
  int candidates_before = candidates_raised_;

  double score_before = last_score_;
  ExecuteOps(seq, &outcome);

  LoadVarianceSnapshot snapshot = monitor_.Sample(dfs_);
  outcome.variance_score = snapshot.Score(monitor_.weights());
  outcome.variance_gain = outcome.variance_score - last_score_;
  last_score_ = outcome.variance_score;
  if (coverage_ != nullptr) {
    outcome.new_coverage = coverage_->TotalHits() - coverage_before;
  }
  if (telemetry_ != nullptr) {
    telemetry_->Record(CampaignEventKind::kVariance, {}, score_before,
                       outcome.variance_score,
                       static_cast<uint64_t>(outcome.ops_executed));
  }

  std::optional<ImbalanceCandidate> candidate = detector_.Check(snapshot);
  if (candidate.has_value() && !dfs_.RebalanceDone()) {
    // The balancer is mid-flight: the system is *converging*, not failed.
    // Give it its chance, then re-check on a settled window; a timeout keeps
    // the candidate (that is what a hang looks like). The discarded sample
    // closes the window over the migration traffic so the probe is measured
    // alone (and advances the EMA, as the pinned digests expect).
    if (WaitForRebalanceDone()) {
      (void)monitor_.Sample(dfs_);
      RunProbeWorkload();
      LoadVarianceSnapshot settled = monitor_.Sample(dfs_);
      candidate = detector_.CheckOnce(settled);
      CleanupProbeDirs();
    }
  }
  if (candidate.has_value()) {
    ++candidates_raised_;
    FailureReport report;
    report.dimension = candidate->dimension;
    report.ratio = candidate->ratio;
    bool confirmed = DoubleCheck(seq, *candidate, report);
    if (telemetry_ != nullptr) {
      telemetry_->Record(CampaignEventKind::kDoubleCheck,
                         confirmed ? (report.rebalance_hung ? "rebalance_hung"
                                                            : "confirmed")
                                   : "refuted",
                         report.ratio);
    }
    if (confirmed) {
      // The refuted path never reads the opseq, so the copy (reports outlive
      // the campaign loop) is paid only for real failures.
      report.testcase = seq;
      HandleConfirmed(report, outcome);
    }
  }
  if (model_coverage_ != nullptr) {
    outcome.new_transitions =
        model_coverage_->TransitionsCovered() - transitions_before;
  }
  outcome.candidates = candidates_raised_ - candidates_before;
  return outcome;
}

bool TestCaseExecutor::WaitForRebalanceDone() {
  SimTime deadline = dfs_.Now() + kRebalanceTimeout;
  uint64_t polls = 0;
  while (!dfs_.RebalanceDone() && dfs_.Now() < deadline) {
    dfs_.AdvanceTime(kPollInterval);
    ++polls;
  }
  bool done = dfs_.RebalanceDone();
  // Convergence telemetry: how many poll iterations the balancer needed to
  // drain (or that the candidate burned before timing out).
  if (telemetry_ != nullptr && polls > 0) {
    telemetry_->Record(CampaignEventKind::kRebalanceWait, done ? "done" : "timeout",
                       0.0, 0.0, polls);
  }
  return done;
}

void TestCaseExecutor::RunProbeWorkload() {
  // A metadata-only probe burst: negligible storage/CPU cost on a healthy
  // system, so the sampled window isolates *persistent* skew (a CPU or
  // network fault keeps loading its victim on every request) from the
  // transient skew the candidate's own heavy writes produced.
  // Probe operands are deliberately NOT observed into the input model: the
  // dirs are scaffolding that CleanupProbeDirs removes, so letting the
  // generator learn (and nest later files under) them would both leak names
  // into test cases and make the re-check protocol perturb the campaign's
  // operand distribution. Each dir takes the next free slot name, so bursts
  // under the same parents intern no new paths.
  for (int i = 0; i < kProbeOps; ++i) {
    Operation op;
    op.kind = OpKind::kMkdir;
    op.path = model_.ProbeDirName(rng_, probe_dirs_.size());
    OpResult result = dfs_.Execute(op);
    ++total_ops_;
    if (result.status.ok()) {
      probe_dirs_.push_back(std::move(op));
    }
  }
}

void TestCaseExecutor::CleanupProbeDirs() {
  // Reverse creation order: a probe dir may have been created inside an
  // earlier one, and rmdir requires empty directories. The bursts create
  // only directories and the generator never learns their names, so reverse
  // order always leaves each dir empty by the time its rmdir runs.
  for (auto it = probe_dirs_.rbegin(); it != probe_dirs_.rend(); ++it) {
    it->kind = OpKind::kRmdir;
    (void)dfs_.Execute(*it);
    ++total_ops_;
  }
  probe_dirs_.clear();
}

bool TestCaseExecutor::WaitForEnvRecovery() {
  if (!dfs_.EnvRecoveryPending()) {
    return false;
  }
  SimTime deadline = dfs_.Now() + kRebalanceTimeout;
  uint64_t polls = 0;
  while (dfs_.EnvRecoveryPending() && dfs_.Now() < deadline) {
    dfs_.AdvanceTime(kPollInterval);
    ++polls;
  }
  if (telemetry_ != nullptr && polls > 0) {
    telemetry_->Record(CampaignEventKind::kRebalanceWait,
                       dfs_.EnvRecoveryPending() ? "recovery_timeout"
                                                 : "recovered",
                       0.0, 0.0, polls);
  }
  return true;
}

bool TestCaseExecutor::RebalanceAndWait() {
  // A rebalance triggered while one is already running is a no-op, so drain
  // any in-flight round first and only then issue the explicit command —
  // otherwise the fresh plan would be built from a stale mid-round state.
  if (!WaitForRebalanceDone()) {
    return false;
  }
  (void)dfs_.TriggerRebalance();
  return WaitForRebalanceDone();
}

bool TestCaseExecutor::DoubleCheck(const OpSeq& seq, const ImbalanceCandidate& candidate,
                                   FailureReport& report) {
  // Step 0 (env faults only): if a crash+restart is still in flight, the
  // candidate was raised against a degraded cluster. Wait the recovery out
  // (restart delays are bounded at one virtual hour, well inside the
  // rebalance timeout) and run the standard protocol against the recovered
  // system. A candidate that survives is the crash-recovery failure kind:
  // the system came back up, re-ran its interrupted round, and still could
  // not settle into LBS.
  bool recovered_from_crash = WaitForEnvRecovery();
  // A wait that times out means the rebalance mechanism itself is stuck:
  // that is a failure in its own right (hang-type imbalance failures).
  auto hung = [&]() {
    report.rebalance_hung = true;
    report.ratio = candidate.ratio;
    report.confirmed_at = dfs_.Now();
    return true;
  };

  // Step 1: explicitly call the rebalance API, then poll the 'rebalance
  // state' API until 'rebalance done'.
  if (!RebalanceAndWait()) {
    return hung();
  }

  // Step 2: re-execute the test case, then let the balancer respond to it
  // once more — a healthy system must be able to return to LBS (§2.2).
  ExecuteOps(seq, nullptr);
  if (!RebalanceAndWait()) {
    return hung();
  }

  // Step 3: re-baseline the sampling window (absorbs the re-execution's own
  // transient load), probe, and re-check the load state. If background
  // migration restarted underneath the probe, its transfer load would be
  // mistaken for request skew — wait it out and probe again. Both discarded
  // samples are kept: each closes a window, and its EMA fold is part of the
  // pinned campaign trajectory.
  (void)monitor_.Sample(dfs_);
  RunProbeWorkload();
  if (!dfs_.RebalanceDone()) {
    if (!WaitForRebalanceDone()) {
      return hung();
    }
    (void)monitor_.Sample(dfs_);
    RunProbeWorkload();
  }
  LoadVarianceSnapshot snapshot = monitor_.Sample(dfs_);
  std::optional<ImbalanceCandidate> recheck = detector_.CheckOnce(snapshot);
  CleanupProbeDirs();
  if (!recheck.has_value()) {
    return false;  // the balancer recovered the system: transient imbalance
  }
  if (recheck->dimension == ImbalanceDimension::kStorage) {
    // A storage skew the balancer had no room to act on is capacity
    // exhaustion, not an imbalance failure: with every target brick full,
    // even a perfect balancer cannot return the system to LBS. Refute unless
    // the cluster still had space to move data into (capacity 0 = adapter
    // does not report space; never refute on unknown).
    uint64_t capacity = dfs_.TotalCapacityBytes();
    if (capacity > 0 && dfs_.FreeSpaceBytes() < capacity / 100) {
      return false;
    }
  }
  report.dimension = recovered_from_crash ? ImbalanceDimension::kCrashRecovery
                                          : recheck->dimension;
  report.ratio = recheck->ratio;
  report.confirmed_at = dfs_.Now();
  for (const LoadSample& sample : dfs_.SampleLoad()) {
    if (sample.is_storage && sample.online && sample.capacity_bytes > 0) {
      report.detail += Sprintf("n%u:%.0f%% ", sample.node,
                               100.0 * static_cast<double>(sample.used_bytes) /
                                   static_cast<double>(sample.capacity_bytes));
    }
  }
  report.detail += "| " + dfs_.DescribeState();
  return true;
}

void TestCaseExecutor::HandleConfirmed(FailureReport& report, ExecOutcome& outcome) {
  if (ground_truth_ != nullptr) {
    report.active_faults = ground_truth_->ActiveFaultIds();
  }
  THEMIS_LOG(kInfo, "confirmed %s imbalance (ratio %.2f) at t=%.1fmin [%s] %s",
             ImbalanceDimensionName(report.dimension), report.ratio,
             ToMinutes(report.confirmed_at),
             report.active_faults.empty() ? "no fault active"
                                          : report.active_faults.front().c_str(),
             report.detail.c_str());
  outcome.failures.push_back(report);
  // Any probe dirs from a hung-rebalance confirmation are wiped with the
  // rest of the namespace by the reset below — drop them without executing.
  probe_dirs_.clear();
  // Reset the DFS to its initial state and restart testing (Fig. 6).
  dfs_.ResetToInitial();
  model_.Reset();
  model_.SyncFromDfs(dfs_);
  monitor_.ResetWindow();
  detector_.ResetStreak();
  last_score_ = 0.0;
  if (telemetry_ != nullptr) {
    telemetry_->Record(CampaignEventKind::kClusterReset,
                       ImbalanceDimensionName(report.dimension));
  }
}

}  // namespace themis
