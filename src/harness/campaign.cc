#include "src/harness/campaign.h"

#include <bit>
#include <cmath>
#include <filesystem>

#include "src/common/log.h"
#include "src/common/strings.h"
#include "src/core/generator.h"
#include "src/harness/snapshot.h"

namespace themis {

namespace {

uint64_t HashString(uint64_t h, const std::string& text) {
  return HashBytes(HashCombine(h, text.size()), text);
}

uint64_t HashDouble(uint64_t h, double value) {
  return HashCombine(h, std::bit_cast<uint64_t>(value));
}

// Share of generated ops drawn from the env-fault operator class when
// CampaignConfig::env_faults is on (DESIGN.md §14). High enough that every
// campaign exercises the fault schedule, low enough that request/config ops
// still dominate and the variance guidance has load to steer.
constexpr double kEnvFaultShare = 0.2;

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
      // Healthy system (false-positive studies): no bugs, env-gated or not.
      return {};
  }
  if (config.env_faults) {
    // Env-gated bugs ride along only when the grammar can actually produce
    // their trigger operators; in a fault-free campaign they would be dead
    // weight in the trigger-evaluation loop.
    std::vector<FaultSpec> env_bugs = EnvFaultBugsFor(config.flavor);
    faults.insert(faults.end(), env_bugs.begin(), env_bugs.end());
  }
  return faults;
}

}  // namespace

uint64_t CampaignResult::Digest() const {
  uint64_t h = Mix64(0x7e315d16e57ULL);
  h = HashString(h, strategy_name);
  h = HashCombine(h, static_cast<uint64_t>(flavor));
  h = HashCombine(h, static_cast<uint64_t>(testcases));
  h = HashCombine(h, total_ops);
  h = HashCombine(h, static_cast<uint64_t>(candidates));
  h = HashCombine(h, final_coverage);
  h = HashCombine(h, static_cast<uint64_t>(false_positives));
  for (const auto& [id, at] : distinct_failures) {
    h = HashString(h, id);
    h = HashCombine(h, static_cast<uint64_t>(at));
  }
  for (const auto& [at, hits] : coverage_timeline) {
    h = HashCombine(h, static_cast<uint64_t>(at));
    h = HashCombine(h, hits);
  }
  for (const auto& [id, stats] : trigger_stats) {
    h = HashString(h, id);
    h = HashCombine(h, stats.first);
    h = HashCombine(h, static_cast<uint64_t>(stats.second));
  }
  for (const FailureReport& report : reports) {
    h = HashCombine(h, static_cast<uint64_t>(report.dimension));
    h = HashDouble(h, report.ratio);
    h = HashCombine(h, static_cast<uint64_t>(report.confirmed_at));
    h = HashCombine(h, report.rebalance_hung ? 1u : 0u);
    h = HashString(h, report.testcase.ToString());
    for (const std::string& fault : report.active_faults) {
      h = HashString(h, fault);
    }
  }
  for (const CampaignEvent& event : telemetry) {
    h = HashCombine(h, static_cast<uint64_t>(event.kind));
    h = HashCombine(h, static_cast<uint64_t>(event.at));
    h = HashString(h, event.label);
    h = HashDouble(h, event.value);
    h = HashDouble(h, event.value2);
    h = HashCombine(h, event.count);
  }
  return h;
}

Status CampaignConfig::Validate() const {
  if (budget <= 0) {
    return Status::InvalidArgument("campaign budget must be positive");
  }
  if (storage_nodes <= 0) {
    return Status::InvalidArgument("campaign needs at least one storage node");
  }
  if (meta_nodes < 0) {
    return Status::InvalidArgument("meta node count cannot be negative");
  }
  if (!std::isfinite(threshold_t) || threshold_t <= 0.0) {
    return Status::InvalidArgument("detector threshold t must be finite and > 0");
  }
  if (coverage_sample_period <= 0) {
    return Status::InvalidArgument("coverage sample period must be positive");
  }
  if (initial_files < 0) {
    return Status::InvalidArgument("initial file population cannot be negative");
  }
  // A non-finite weight makes the sum non-finite too.
  const double weight_sum = weights.computation + weights.network + weights.storage;
  if (!std::isfinite(weight_sum) || weights.computation < 0.0 || weights.network < 0.0 ||
      weights.storage < 0.0 || weight_sum <= 0.0) {
    return Status::InvalidArgument(
        "variance weights must be finite, non-negative and sum to a positive value");
  }
  if (checkpoint_dir.empty() && (checkpoint_every_ops > 0 || resume)) {
    return Status::InvalidArgument(
        "checkpoint_every_ops/resume require a checkpoint_dir");
  }
  if (!(transition_weight >= 0.0) || transition_weight > 1e6) {
    return Status::InvalidArgument(
        "transition_weight must be finite and non-negative");
  }
  return Status::Ok();
}

CampaignSession::CampaignSession(const CampaignConfig& config,
                                 std::string_view strategy_name)
    : config_(config),
      strategy_name_(strategy_name),
      cluster_(MakeCluster(config.flavor, config.seed, config.storage_nodes,
                           config.meta_nodes)),
      coverage_(FlavorBranchSpace(config.flavor), config.seed),
      model_coverage_(config.flavor),
      injector_(FaultsForConfig(config), config.seed ^ 0xfa0175ULL),
      env_injector_(config.seed ^ 0xe4fa17ULL),
      rng_(config.seed ^ 0x7e5715ULL),
      monitor_(config.weights),
      detector_(DetectorConfig{.threshold = config.threshold_t}) {
  cluster_->set_coverage(&coverage_);
  // Balancer state-machine transition recorder (DESIGN.md §16). Always
  // attached: emission draws no RNG and the counters stay outside Digest(),
  // so recording is free of behavioral side effects; only a nonzero
  // transition_weight lets the counters feed back into seed energy.
  cluster_->set_model_coverage(&model_coverage_);
  // One event log per campaign, stamped with the campaign's virtual clock so
  // every event is deterministic.
  EventLog* telemetry = config.collect_telemetry ? &event_log_ : nullptr;
  if (telemetry != nullptr) {
    event_log_.BindClock(&cluster_->clock());
    cluster_->set_telemetry(telemetry);
  }
  cluster_->set_fault_hooks(&injector_);
  // The env injector always exists so the mid-campaign snapshot layout does
  // not depend on the flag, but it is attached only when env faults are
  // enabled: a detached injector draws no RNG and touches no cluster state,
  // keeping fault-free digests bit-identical to pre-fault-dimension builds.
  if (config.env_faults) {
    cluster_->set_env_faults(&env_injector_);
  }
  detector_.set_telemetry(telemetry);
  // Built last: its constructor already reads the wired cluster.
  executor_.emplace(*cluster_, model_, monitor_, detector_, &injector_, &coverage_,
                    rng_, telemetry);
  executor_->set_model_coverage(&model_coverage_);
}

Result<std::unique_ptr<CampaignSession>> CampaignSession::Build(
    const CampaignConfig& config, std::string_view strategy_name) {
  std::unique_ptr<CampaignSession> session(new CampaignSession(config, strategy_name));
  StrategyOptions options;
  options.telemetry = config.collect_telemetry ? &session->event_log_ : nullptr;
  options.env_fault_share = config.env_faults ? kEnvFaultShare : 0.0;
  options.transition_weight = config.transition_weight;
  Result<std::unique_ptr<Strategy>> strategy = StrategyRegistry::Instance().Make(
      strategy_name, session->model_, session->rng_, options);
  if (!strategy.ok()) {
    return strategy.status();
  }
  session->strategy_ = strategy.take();
  return session;
}

Result<std::unique_ptr<CampaignSession>> CampaignSession::Open(
    const CampaignConfig& config, std::string_view strategy_name) {
  if (Status status = config.Validate(); !status.ok()) {
    return status;
  }
  if (config.resume) {
    // Newest first: the final snapshot, then mid snapshots by descending
    // ordinal. A failed candidate is skipped with a warning — losing the
    // newest checkpoint costs progress, never correctness — and the session
    // it restored into is dropped with it, however far the restore got.
    for (const std::string& path :
         ListJobSnapshotPaths(config.checkpoint_dir, config.job_index)) {
      Result<std::unique_ptr<CampaignSession>> session = Build(config, strategy_name);
      if (!session.ok()) {
        return session;
      }
      if (Status status = (*session)->Restore(path); !status.ok()) {
        THEMIS_LOG(kWarn, "resume: skipping %s: %s", path.c_str(),
                   status.message().c_str());
        continue;
      }
      if ((*session)->final_result_.has_value()) {
        THEMIS_LOG(kInfo, "resume: campaign already complete (%s)", path.c_str());
      } else {
        THEMIS_LOG(kInfo, "resume: restored %s (%d testcases, %llu ops)", path.c_str(),
                   (*session)->progress_.testcases,
                   static_cast<unsigned long long>((*session)->executor_->total_ops()));
      }
      (*session)->ScheduleNextCheckpoint();
      return session;
    }
  }
  Result<std::unique_ptr<CampaignSession>> session = Build(config, strategy_name);
  if (session.ok()) {
    // Initial data population (fresh campaigns only: a restored cluster
    // already contains the population the interrupted run seeded).
    OpSeqGenerator init_generator((*session)->model_);
    (*session)->executor_->SeedInitialData(init_generator, config.initial_files);
    (*session)->ScheduleNextCheckpoint();
  }
  return session;
}

// The complete mid-campaign state after the identity fingerprint. Anything
// else that exists during a run is either derived (rebuilt inside the parts'
// RestoreState) or deliberately not snapshotted (DESIGN.md §11): the log
// stream carries wall-clock values and never feeds back into the campaign.
template <typename Self, typename Fn>
void CampaignSession::ForEachPart(Self& self, Fn&& fn) {
  fn(self.progress_);
  fn(self.rng_);
  fn(*self.cluster_);
  fn(self.coverage_);
  fn(self.model_coverage_);
  fn(self.model_);
  fn(self.monitor_);
  fn(self.detector_);
  fn(self.injector_);
  fn(self.env_injector_);
  fn(self.event_log_);
  fn(*self.executor_);
  fn(*self.strategy_);
}

void CampaignSession::Progress::SaveState(SnapshotWriter& writer) const {
  writer.U64(checkpoints_written);
  writer.I64(testcases);
  writer.I64(next_coverage_sample);
  SaveFailureReports(writer, reports);
  SaveCoverageTimeline(writer, coverage_timeline);
  SaveGroundTruthTally(writer, tally);
}

Status CampaignSession::Progress::RestoreState(SnapshotReader& reader) {
  checkpoints_written = reader.U64();
  testcases = static_cast<int>(reader.I64());
  next_coverage_sample = reader.I64();
  RestoreFailureReports(reader, &reports);
  RestoreCoverageTimeline(reader, &coverage_timeline);
  RestoreGroundTruthTally(reader, &tally);
  return reader.status();
}

Status CampaignSession::Restore(const std::string& path) {
  Result<LoadedSnapshot> loaded = ReadSnapshotFile(path);
  if (!loaded.ok()) {
    return loaded.status();
  }
  SnapshotReader reader(loaded->payload);
  if (Status status = CheckSnapshotIdentity(reader, strategy_name_, config_);
      !status.ok()) {
    return status;
  }
  if (loaded->kind == SnapshotKind::kFinal) {
    CampaignResult result;
    if (Status status = RestoreCampaignResult(reader, &result); !status.ok()) {
      return status;
    }
    final_result_ = std::move(result);
    return Status::Ok();
  }
  Status status;
  ForEachPart(*this, [&](auto& part) {
    if (status.ok()) {
      status = part.RestoreState(reader);
    }
  });
  if (status.ok() && !reader.AtEnd()) {
    status = Status::DataLoss(
        Sprintf("snapshot has %zu trailing bytes", reader.remaining()));
  }
  return status;
}

void CampaignSession::ScheduleNextCheckpoint() {
  const uint64_t every = config_.checkpoint_every_ops;
  next_checkpoint_ops_ = every > 0 ? (executor_->total_ops() / every + 1) * every : 0;
}

bool CampaignSession::Done() const {
  return final_result_.has_value() || cluster_->Now() >= config_.budget;
}

ExecOutcome CampaignSession::Step() {
  OpSeq testcase = strategy_->Next();
  ExecOutcome outcome = executor_->Run(testcase);
  strategy_->OnOutcome(testcase, outcome);
  ++progress_.testcases;
  progress_.reports.insert(progress_.reports.end(), outcome.failures.begin(),
                           outcome.failures.end());
  TallyReports(outcome.failures, progress_.tally);
  while (cluster_->Now() >= progress_.next_coverage_sample) {
    progress_.coverage_timeline.emplace_back(progress_.next_coverage_sample,
                                             coverage_.TotalHits());
    progress_.next_coverage_sample += config_.coverage_sample_period;
  }
  return outcome;
}

Result<bool> CampaignSession::Save() {
  if (config_.checkpoint_every_ops == 0 ||
      executor_->total_ops() < next_checkpoint_ops_) {
    return false;
  }
  // The ordinal continues across resumes, so file names never collide with
  // snapshots from an earlier incarnation.
  ++progress_.checkpoints_written;
  SnapshotWriter writer;
  WriteSnapshotIdentity(writer, strategy_name_, config_);
  ForEachPart(*this, [&writer](const auto& part) { part.SaveState(writer); });
  const std::filesystem::path path =
      std::filesystem::path(config_.checkpoint_dir) /
      MidSnapshotFileName(config_.job_index, progress_.checkpoints_written);
  if (Status status = WriteSnapshotFile(path, SnapshotKind::kMidCampaign, writer.Take());
      !status.ok()) {
    return status;
  }
  PruneMidSnapshots(config_.checkpoint_dir, config_.job_index);
  ScheduleNextCheckpoint();
  return true;
}

CampaignTick CampaignSession::Tick() const {
  return CampaignTick{.total_ops = executor_->total_ops(),
                      .testcases = progress_.testcases,
                      .coverage = coverage_.TotalHits(),
                      .now = cluster_->Now()};
}

Result<CampaignResult> CampaignSession::Finish() {
  if (final_result_.has_value()) {
    return *final_result_;
  }
  CampaignResult result;
  result.strategy_name = strategy_name_;
  result.flavor = config_.flavor;
  result.reports = std::move(progress_.reports);
  result.coverage_timeline = std::move(progress_.coverage_timeline);
  result.testcases = progress_.testcases;
  for (const FaultRuntime& fault : injector_.faults()) {
    result.trigger_stats[fault.spec.id] = {fault.satisfied_evals, fault.trigger_count};
  }
  result.distinct_failures = progress_.tally.distinct_failures;
  result.false_positives = progress_.tally.false_positive_reports;
  result.final_coverage = coverage_.TotalHits();
  result.transition_coverage = model_coverage_.TransitionsCovered();
  for (const auto& [from, to] : model_coverage_.CoveredPairs()) {
    result.transition_pairs.emplace_back(static_cast<uint8_t>(from),
                                         static_cast<uint8_t>(to));
  }
  if (model_coverage_.illegal_transitions() > 0) {
    THEMIS_LOG(kWarn, "campaign saw %llu illegal balancer transitions",
               static_cast<unsigned long long>(model_coverage_.illegal_transitions()));
  }
  result.total_ops = executor_->total_ops();
  result.candidates = executor_->candidates_raised();
  result.telemetry = event_log_.TakeEvents();
  THEMIS_LOG(kInfo,
             "campaign %s/%s: %d testcases, %llu ops, %d distinct failures, %d FPs, "
             "%zu branches",
             result.strategy_name.c_str(), std::string(FlavorName(config_.flavor)).c_str(),
             result.testcases, static_cast<unsigned long long>(result.total_ops),
             result.DistinctTruePositives(), result.false_positives,
             result.final_coverage);
  if (!config_.checkpoint_dir.empty()) {
    // Final snapshot: the complete result, so a resume after completion
    // returns it instead of re-running the campaign.
    SnapshotWriter writer;
    WriteSnapshotIdentity(writer, strategy_name_, config_);
    SaveCampaignResult(writer, result);
    const std::filesystem::path path = std::filesystem::path(config_.checkpoint_dir) /
                                       FinalSnapshotFileName(config_.job_index);
    if (Status status = WriteSnapshotFile(path, SnapshotKind::kFinal, writer.Take());
        !status.ok()) {
      return status;
    }
  }
  return result;
}

Campaign::Campaign(CampaignConfig config) : config_(config) {}

Result<CampaignResult> Campaign::Run(std::string_view strategy_name) {
  Result<std::unique_ptr<CampaignSession>> opened =
      CampaignSession::Open(config_, strategy_name);
  if (!opened.ok()) {
    return opened.status();
  }
  CampaignSession& session = **opened;
  while (!session.Done()) {
    ExecOutcome outcome = session.Step();
    if (loop_observer_ != nullptr) {
      // Before Save on purpose: anything the observer does to the strategy
      // (seed imports) lands in this boundary's snapshot, so a resume never
      // replays it.
      loop_observer_->OnTestcase(session.strategy(), outcome, session.Tick());
    }
    if (Result<bool> saved = session.Save(); !saved.ok()) {
      return saved.status();
    }
  }
  return session.Finish();
}

Result<CampaignResult> RunCampaign(std::string_view strategy_name, Flavor flavor,
                                   uint64_t seed, SimDuration budget,
                                   FaultSet fault_set) {
  CampaignConfig config;
  config.flavor = flavor;
  config.seed = seed;
  config.budget = budget;
  config.fault_set = fault_set;
  return Campaign(config).Run(strategy_name);
}

}  // namespace themis
