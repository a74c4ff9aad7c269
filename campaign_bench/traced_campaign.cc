#include "campaign_bench/traced_campaign.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/core/generator.h"
#include "src/faults/env_fault.h"
#include "src/monitor/states_monitor.h"

namespace campaign_bench {

using namespace themis;

namespace {

// Same value as the library's campaign loop; the parity check catches drift.
constexpr double kEnvFaultShare = 0.2;

// Phase state of the executor Run() in progress, shared by the DFS
// decorator's const and non-const entry points.
struct RunPhase {
  bool in_run = false;
  bool sampled = false;        // the test case's first load sample happened
  bool after_monitor = false;  // the last non-Execute call was a load sample
  Span phase = Span::kPhaseTestcase;
  SimTime phase_virtual_start = 0;
};

bool IsDoubleCheck(Span phase) {
  return phase == Span::kPhaseDcWait || phase == Span::kPhaseDcReexec ||
         phase == Span::kPhaseDcProbe;
}

class TracedDfs final : public DfsInterface {
 public:
  TracedDfs(DfsCluster& inner, Tracer& tracer, LayerCounts& counts)
      : inner_(inner), tracer_(tracer), counts_(counts) {}

  // Brackets one TestCaseExecutor::Run: opens kExecutorRun and the first
  // phase, and closes both afterwards.
  void BeginRun() {
    tracer_.Begin(Span::kExecutorRun);
    tracer_.Begin(Span::kPhaseTestcase);
    run_ = RunPhase{};
    run_.in_run = true;
    run_.phase_virtual_start = inner_.Now();
  }
  void EndRun() {
    CloseVirtual();
    run_.in_run = false;
    tracer_.End();  // phase
    tracer_.End();  // kExecutorRun
  }

  OpResult Execute(const Operation& op) override {
    if (run_.in_run) {
      if (!run_.sampled) {
        ++counts_.testcase_ops;
      } else if (run_.after_monitor) {
        EnterPhase(Span::kPhaseDcProbe);
        ++counts_.dc_probe_ops;
      } else {
        EnterPhase(Span::kPhaseDcReexec);
        ++counts_.dc_reexec_ops;
      }
    }
    ScopedSpan span(tracer_, Span::kDfsExecute);
    OpResult result = inner_.Execute(op);
    ++counts_.execute_calls;
    if (!result.status.ok()) {
      ++counts_.execute_failed;
    }
    return result;
  }

  bool SnapshotLoadStats(LoadStatsSnapshot& out) const override {
    OnMonitorCall();
    ++counts_.sample_calls;
    ScopedSpan span(tracer_, Span::kMonitorSample);
    return inner_.SnapshotLoadStats(out);
  }
  void AdvanceLoadWindow() override {
    OnMonitorCall();
    ScopedSpan span(tracer_, Span::kMonitorSample);
    inner_.AdvanceLoadWindow();
  }
  void SampleLoadInto(std::vector<LoadSample>& out) const override {
    OnMonitorCall();
    ScopedSpan span(tracer_, Span::kMonitorScan);
    inner_.SampleLoadInto(out);
  }

  Status TriggerRebalance() override {
    OnWaitCall();
    ScopedSpan span(tracer_, Span::kDfsTrigger);
    return inner_.TriggerRebalance();
  }
  bool RebalanceDone() const override {
    OnWaitCall();
    return inner_.RebalanceDone();
  }
  void AdvanceTime(SimDuration delta) override {
    OnWaitCall();
    ++counts_.advance_calls;
    if (run_.in_run && run_.sampled) {
      ++counts_.dc_wait_calls;
    }
    ScopedSpan span(tracer_, Span::kDfsAdvance);
    inner_.AdvanceTime(delta);
  }
  bool EnvRecoveryPending() const override {
    OnWaitCall();
    return inner_.EnvRecoveryPending();
  }

  void ResetToInitial() override {
    if (run_.in_run) {
      EnterPhase(Span::kPhaseReset);
    }
    ++counts_.reset_calls;
    ScopedSpan span(tracer_, Span::kDfsReset);
    inner_.ResetToInitial();
  }

  // Views that neither switch phase nor open a span.
  std::vector<NodeId> ListMetaNodes() const override { return inner_.ListMetaNodes(); }
  std::vector<NodeId> ListStorageNodes() const override {
    return inner_.ListStorageNodes();
  }
  std::vector<BrickId> ListBricks() const override { return inner_.ListBricks(); }
  uint64_t FreeSpaceBytes() const override { return inner_.FreeSpaceBytes(); }
  uint64_t TotalCapacityBytes() const override { return inner_.TotalCapacityBytes(); }
  uint64_t MembershipEpoch() const override { return inner_.MembershipEpoch(); }
  SimTime Now() const override { return inner_.Now(); }
  Flavor flavor() const override { return inner_.flavor(); }
  std::string_view name() const override { return inner_.name(); }
  std::string DescribeState() const override { return inner_.DescribeState(); }

 private:
  void OnMonitorCall() const {
    if (!run_.in_run) {
      return;
    }
    if (!run_.sampled) {
      run_.sampled = true;
      EnterPhase(Span::kPhaseDetect);
    }
    run_.after_monitor = true;
  }

  void OnWaitCall() const {
    if (!run_.in_run || !run_.sampled) {
      return;
    }
    if (run_.phase != Span::kPhaseReset) {
      EnterPhase(Span::kPhaseDcWait);
    }
    run_.after_monitor = false;
  }

  void EnterPhase(Span phase) const {
    if (phase == run_.phase) {
      return;
    }
    CloseVirtual();
    run_.phase = phase;
    run_.phase_virtual_start = inner_.Now();
    tracer_.Switch(phase);
  }

  void CloseVirtual() const {
    if (IsDoubleCheck(run_.phase)) {
      counts_.dc_virtual += inner_.Now() - run_.phase_virtual_start;
    }
  }

  DfsCluster& inner_;
  Tracer& tracer_;
  LayerCounts& counts_;
  mutable RunPhase run_;
};

class TracedHooks final : public FaultHooks {
 public:
  TracedHooks(FaultHooks& inner, Tracer& tracer, LayerCounts& counts)
      : inner_(inner), tracer_(tracer), counts_(counts) {}

  void OnOperationExecuted(DfsCluster& dfs, const Operation& op,
                           const OpResult& result) override {
    ++counts_.on_op_calls;
    ScopedSpan span(tracer_, Span::kFaultsOnOp);
    inner_.OnOperationExecuted(dfs, op, result);
  }
  void OnRebalancePlanned(DfsCluster& dfs, MigrationPlan& plan) override {
    ScopedSpan span(tracer_, Span::kFaultsOnPlan);
    inner_.OnRebalancePlanned(dfs, plan);
  }
  MigrateVerdict OnMigrateChunk(DfsCluster& dfs, const ChunkMove& move) override {
    ++counts_.migrate_moves;
    ScopedSpan span(tracer_, Span::kFaultsOnMigrate);
    return inner_.OnMigrateChunk(dfs, move);
  }
  void OnRebalanceDone(DfsCluster& dfs) override {
    ScopedSpan span(tracer_, Span::kFaultsOther);
    inner_.OnRebalanceDone(dfs);
  }
  bool SuppressRebalance(const DfsCluster& dfs) override {
    ScopedSpan span(tracer_, Span::kFaultsOther);
    return inner_.SuppressRebalance(dfs);
  }
  void OnTopologyChanged(DfsCluster& dfs) override {
    ScopedSpan span(tracer_, Span::kFaultsOther);
    inner_.OnTopologyChanged(dfs);
  }
  bool SuppressMetadataSync(const DfsCluster& dfs, NodeId node) override {
    ScopedSpan span(tracer_, Span::kFaultsOther);
    return inner_.SuppressMetadataSync(dfs, node);
  }
  void OnClusterReset(DfsCluster& dfs) override {
    ScopedSpan span(tracer_, Span::kFaultsOther);
    inner_.OnClusterReset(dfs);
  }

 private:
  FaultHooks& inner_;
  Tracer& tracer_;
  LayerCounts& counts_;
};

class TracedEnv final : public EnvFaultRuntime {
 public:
  TracedEnv(EnvFaultRuntime& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  OpResult ExecuteEnvOp(DfsCluster& dfs, const Operation& op) override {
    ScopedSpan span(tracer_, Span::kEnv);
    return inner_.ExecuteEnvOp(dfs, op);
  }
  MessageVerdict OnMigrationMessage(DfsCluster& dfs, const ChunkMove& move) override {
    ScopedSpan span(tracer_, Span::kEnv);
    return inner_.OnMigrationMessage(dfs, move);
  }
  bool DropHeartbeat(DfsCluster& dfs, NodeId node) override {
    ScopedSpan span(tracer_, Span::kEnv);
    return inner_.DropHeartbeat(dfs, node);
  }
  double DiskSlowdown(const DfsCluster& dfs, NodeId node) const override {
    ScopedSpan span(tracer_, Span::kEnv);
    return inner_.DiskSlowdown(dfs, node);
  }
  void OnClockAdvanced(DfsCluster& dfs, SimTime now) override {
    ScopedSpan span(tracer_, Span::kEnv);
    inner_.OnClockAdvanced(dfs, now);
  }
  bool RecoveryPending(const DfsCluster& dfs) const override {
    ScopedSpan span(tracer_, Span::kEnv);
    return inner_.RecoveryPending(dfs);
  }
  void OnClusterReset(DfsCluster& dfs) override {
    ScopedSpan span(tracer_, Span::kEnv);
    inner_.OnClusterReset(dfs);
  }

 private:
  EnvFaultRuntime& inner_;
  Tracer& tracer_;
};

class TracedStrategy final : public Strategy {
 public:
  TracedStrategy(std::unique_ptr<Strategy> inner, Tracer& tracer, LayerCounts& counts)
      : inner_(std::move(inner)), tracer_(tracer), counts_(counts) {}

  std::string_view name() const override { return inner_->name(); }
  OpSeq Next() override {
    ++counts_.next_calls;
    ScopedSpan span(tracer_, Span::kStrategyNext);
    return inner_->Next();
  }
  void OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) override {
    ScopedSpan span(tracer_, Span::kStrategyOnOutcome);
    inner_->OnOutcome(seq, outcome);
  }
  void SaveState(SnapshotWriter& writer) const override { inner_->SaveState(writer); }
  Status RestoreState(SnapshotReader& reader) override {
    return inner_->RestoreState(reader);
  }
  bool ImportSeed(const OpSeq& seq, double score, uint64_t fingerprint) override {
    return inner_->ImportSeed(seq, score, fingerprint);
  }
  const SeedPool* seed_pool() const override { return inner_->seed_pool(); }

 private:
  std::unique_ptr<Strategy> inner_;
  Tracer& tracer_;
  LayerCounts& counts_;
};

// Everything one campaign owns, built with the library loop's seeds and
// wiring; the parity check catches any difference.
struct CampaignParts {
  CampaignParts(const CampaignConfig& config, Tracer& tracer, LayerCounts& counts)
      : cluster(MakeCluster(config.flavor, config.seed, config.storage_nodes,
                            config.meta_nodes)),
        coverage(FlavorBranchSpace(config.flavor), config.seed),
        model_coverage(config.flavor),
        injector(FaultsForConfig(config), config.seed ^ 0xfa0175ULL),
        env_injector(config.seed ^ 0xe4fa17ULL),
        hooks(injector, tracer, counts),
        env(env_injector, tracer),
        dfs(*cluster, tracer, counts),
        rng(config.seed ^ 0x7e5715ULL),
        monitor(config.weights),
        detector(DetectorFor(config)) {
    cluster->set_coverage(&coverage);
    cluster->set_model_coverage(&model_coverage);
    cluster->set_fault_hooks(&hooks);
    if (config.env_faults) {
      cluster->set_env_faults(&env);
    }
    // Built last: its constructor already reads the (wired) cluster.
    executor.emplace(dfs, model, monitor, detector, &injector, &coverage, rng, nullptr);
    executor->set_model_coverage(&model_coverage);
  }

  static DetectorConfig DetectorFor(const CampaignConfig& config) {
    DetectorConfig detector_config;
    detector_config.threshold = config.threshold_t;
    return detector_config;
  }

  std::unique_ptr<DfsCluster> cluster;
  CoverageRecorder coverage;
  ModelCoverage model_coverage;
  FaultInjector injector;
  EnvFaultInjector env_injector;
  TracedHooks hooks;
  TracedEnv env;
  TracedDfs dfs;
  Rng rng;
  InputModel model;
  StatesMonitor monitor;
  ImbalanceDetector detector;
  std::optional<TestCaseExecutor> executor;
};

}  // namespace

std::vector<FaultSpec> FaultsForConfig(const CampaignConfig& config) {
  std::vector<FaultSpec> faults;
  switch (config.fault_set) {
    case FaultSet::kNewBugs:
      faults = NewBugsFor(config.flavor);
      break;
    case FaultSet::kHistorical:
      faults = HistoricalFaultsFor(config.flavor);
      break;
    case FaultSet::kNone:
      return {};
  }
  if (config.env_faults) {
    std::vector<FaultSpec> env_bugs = EnvFaultBugsFor(config.flavor);
    faults.insert(faults.end(), env_bugs.begin(), env_bugs.end());
  }
  return faults;
}

const char* SpanName(Span span) {
  switch (span) {
    case Span::kCampaign: return "harness.campaign";
    case Span::kSetup: return "harness.campaign_setup";
    case Span::kStrategyNext: return "core.strategy.next";
    case Span::kStrategyOnOutcome: return "core.strategy.on_outcome";
    case Span::kExecutorRun: return "core.executor.run";
    case Span::kPhaseTestcase: return "core.executor.testcase";
    case Span::kPhaseDetect: return "core.executor.detect";
    case Span::kPhaseDcWait: return "core.executor.dc_wait";
    case Span::kPhaseDcReexec: return "core.executor.dc_reexec";
    case Span::kPhaseDcProbe: return "core.executor.dc_probe";
    case Span::kPhaseReset: return "core.executor.reset";
    case Span::kDfsExecute: return "dfs.execute";
    case Span::kDfsAdvance: return "dfs.advance";
    case Span::kDfsTrigger: return "dfs.rebalance_trigger";
    case Span::kDfsReset: return "dfs.reset";
    case Span::kMonitorSample: return "monitor.sample";
    case Span::kMonitorScan: return "monitor.scan";
    case Span::kFaultsOnOp: return "faults.on_op";
    case Span::kFaultsOnPlan: return "faults.on_plan";
    case Span::kFaultsOnMigrate: return "faults.on_migrate";
    case Span::kFaultsOther: return "faults.other";
    case Span::kEnv: return "faults.env";
    case Span::kFinalize: return "harness.finalize";
    case Span::kCount: break;
  }
  return "?";
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "name,start_ns,end_ns,parent,campaign\n");
  for (const Record& record : records_) {
    std::fprintf(out, "%s,%lld,%lld,%d,%u\n", SpanName(record.span),
                 static_cast<long long>(record.start_ns),
                 static_cast<long long>(record.end_ns), record.parent, record.campaign);
  }
  return std::fclose(out) == 0;
}

Result<TracedCampaign> RunTracedCampaign(const CampaignConfig& config,
                                         std::string_view strategy_name,
                                         Tracer& tracer, uint32_t campaign_id) {
  if (Status status = config.Validate(); !status.ok()) {
    return status;
  }
  TracedCampaign traced;
  LayerCounts& counts = traced.counts;
  CampaignResult& result = traced.result;
  result.strategy_name = std::string(strategy_name);
  result.flavor = config.flavor;

  tracer.BeginCampaign(campaign_id);
  const int64_t campaign_start = Tracer::NowNs();
  tracer.Begin(Span::kCampaign);
  tracer.Begin(Span::kSetup);
  // Heap-held so the parts outlive the setup span that builds them.
  auto parts = std::make_unique<CampaignParts>(config, tracer, counts);
  StrategyOptions strategy_options;
  strategy_options.env_fault_share = config.env_faults ? kEnvFaultShare : 0.0;
  strategy_options.transition_weight = config.transition_weight;
  Result<std::unique_ptr<Strategy>> made = StrategyRegistry::Instance().Make(
      strategy_name, parts->model, parts->rng, strategy_options);
  if (!made.ok()) {
    tracer.End();
    tracer.End();
    return made.status();
  }
  TracedStrategy strategy(made.take(), tracer, counts);
  {
    OpSeqGenerator init_generator(parts->model);
    parts->executor->SeedInitialData(init_generator, config.initial_files);
  }
  counts.seed_ops = parts->executor->total_ops();
  tracer.End();  // kSetup

  DfsCluster& cluster = *parts->cluster;
  TestCaseExecutor& executor = *parts->executor;
  const SimTime virtual_start = cluster.Now();
  GroundTruthTally tally;
  SimTime next_coverage_sample = 0;
  while (cluster.Now() < config.budget) {
    OpSeq testcase = strategy.Next();
    parts->dfs.BeginRun();
    ExecOutcome outcome = executor.Run(testcase);
    parts->dfs.EndRun();
    strategy.OnOutcome(testcase, outcome);
    ++result.testcases;
    counts.candidates += static_cast<uint64_t>(outcome.candidates);
    counts.confirmed += outcome.failures.size();
    for (const FailureReport& report : outcome.failures) {
      counts.hung += report.rebalance_hung ? 1 : 0;
      result.reports.push_back(report);
    }
    TallyReports(outcome.failures, tally);
    while (cluster.Now() >= next_coverage_sample) {
      result.coverage_timeline.emplace_back(next_coverage_sample,
                                            parts->coverage.TotalHits());
      next_coverage_sample += config.coverage_sample_period;
    }
  }

  tracer.Begin(Span::kFinalize);
  for (const FaultRuntime& fault : parts->injector.faults()) {
    result.trigger_stats[fault.spec.id] = {fault.satisfied_evals, fault.trigger_count};
  }
  result.distinct_failures = tally.distinct_failures;
  result.false_positives = tally.false_positive_reports;
  counts.false_positives = static_cast<uint64_t>(result.false_positives);
  result.final_coverage = parts->coverage.TotalHits();
  result.transition_coverage = parts->model_coverage.TransitionsCovered();
  for (const auto& [from, to] : parts->model_coverage.CoveredPairs()) {
    result.transition_pairs.emplace_back(static_cast<uint8_t>(from),
                                         static_cast<uint8_t>(to));
  }
  result.total_ops = executor.total_ops();
  result.candidates = executor.candidates_raised();
  counts.total_virtual = cluster.Now() - virtual_start;
  parts.reset();
  tracer.End();  // kFinalize
  tracer.End();  // kCampaign
  traced.wall_s = static_cast<double>(Tracer::NowNs() - campaign_start) * 1e-9;
  traced.spans = tracer.totals();

  const uint64_t phase_ops =
      counts.seed_ops + counts.testcase_ops + counts.dc_reexec_ops + counts.dc_probe_ops;
  if (phase_ops != result.total_ops) {
    return Status::Internal(Sprintf(
        "phase op counts (seed %llu + testcase %llu + reexec %llu + probe %llu) != "
        "executor total %llu",
        static_cast<unsigned long long>(counts.seed_ops),
        static_cast<unsigned long long>(counts.testcase_ops),
        static_cast<unsigned long long>(counts.dc_reexec_ops),
        static_cast<unsigned long long>(counts.dc_probe_ops),
        static_cast<unsigned long long>(result.total_ops)));
  }
  return traced;
}

std::string ParityMismatch(const CampaignResult& untraced, const CampaignResult& traced) {
  std::string diff;
  auto check = [&diff](bool same, const char* field) {
    if (!same) {
      diff += diff.empty() ? field : std::string(",") + field;
    }
  };
  check(untraced.Digest() == traced.Digest(), "digest");
  check(untraced.testcases == traced.testcases, "testcases");
  check(untraced.total_ops == traced.total_ops, "total_ops");
  check(untraced.candidates == traced.candidates, "candidates");
  check(untraced.final_coverage == traced.final_coverage, "final_coverage");
  check(untraced.distinct_failures == traced.distinct_failures, "distinct_failures");
  return diff;
}

}  // namespace campaign_bench
