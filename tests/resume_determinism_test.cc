// The tentpole guarantee (ISSUE: checkpointable, crash-tolerant campaigns):
// a campaign killed at ANY checkpoint and resumed — possibly crashed and
// resumed repeatedly — produces byte-identical per-flavor digests and
// telemetry summaries versus a campaign that never stopped, at any --jobs
// count. Crashes are modeled in-process by dropping a campaign session right
// after a checkpoint (the CI resume-smoke job does the same with a real
// SIGKILL).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/campaign.h"
#include "src/harness/runner.h"
#include "src/harness/snapshot.h"
#include "src/harness/telemetry_export.h"
#include "tests/checkpoint_helpers.h"

namespace themis {
namespace {

constexpr Flavor kFlavors[] = {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph,
                               Flavor::kLeo};

CampaignConfig BaseConfig(Flavor flavor) {
  CampaignConfig config;
  config.flavor = flavor;
  config.seed = 9001;
  config.budget = Hours(2);
  return config;
}

// Crash at checkpoint 1, resume and crash again one checkpoint later,
// resume to completion: every flavor must land on the uninterrupted digest,
// whichever checkpoint the run died at.
TEST(ResumeDeterminismTest, RepeatedCrashesConvergeToUninterruptedDigest) {
  for (Flavor flavor : kFlavors) {
    const std::string flavor_name(FlavorName(flavor));
    SCOPED_TRACE(flavor_name);
    CampaignConfig checkpointed = BaseConfig(flavor);
    checkpointed.checkpoint_dir = FreshDir("crash_" + flavor_name);
    checkpointed.checkpoint_every_ops = 400;
    Result<CampaignTick> first = CrashAfterCheckpoints(checkpointed, "Themis", 1);
    ASSERT_TRUE(first.ok());

    checkpointed.resume = true;  // crash again, one checkpoint further in
    Result<CampaignTick> second = CrashAfterCheckpoints(checkpointed, "Themis", 1);
    ASSERT_TRUE(second.ok());
    EXPECT_GT(second->total_ops, first->total_ops);  // continued, not restarted
    ExpectResumeMatchesUninterrupted(checkpointed, "Themis");
  }
}

// The checkpoint cadence itself must not influence results: snapshotting
// draws no randomness and mutates nothing, so two cadences land on the same
// digest as no checkpointing at all.
TEST(ResumeDeterminismTest, CheckpointCadenceDoesNotPerturbResults) {
  Result<CampaignResult> plain = Campaign(BaseConfig(Flavor::kCeph)).Run("Themis");
  ASSERT_TRUE(plain.ok());
  for (uint64_t every : {250u, 1000u}) {
    CampaignConfig config = BaseConfig(Flavor::kCeph);
    config.checkpoint_dir = FreshDir("cadence_" + std::to_string(every));
    config.checkpoint_every_ops = every;
    Result<CampaignResult> checkpointed = Campaign(config).Run("Themis");
    ASSERT_TRUE(checkpointed.ok());
    EXPECT_EQ(checkpointed->Digest(), plain->Digest()) << "every " << every;
  }
}

// Matrix-level: 4 flavors x 2 seeds, all jobs killed mid-campaign, resumed
// under --jobs 8 and then --jobs 1. Both resumes must render a summary JSON
// byte-identical to the uninterrupted matrix's.
TEST(ResumeDeterminismTest, MatrixResumeIsByteIdenticalAtAnyJobsCount) {
  CampaignMatrix matrix;
  matrix.flavors = {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph, Flavor::kLeo};
  matrix.strategies = {"Themis"};
  matrix.seeds = 2;
  matrix.matrix_seed = 777;
  matrix.base.budget = Hours(2);

  RunnerOptions uninterrupted_options;
  uninterrupted_options.jobs = 8;
  MatrixResult uninterrupted = CampaignRunner(uninterrupted_options).Run(matrix);
  ASSERT_EQ(uninterrupted.FailedJobs(), 0);
  const std::string expected = RenderCampaignSummaryJson(uninterrupted);

  const std::string dir = FreshDir("matrix");
  std::vector<CampaignJob> jobs = CampaignRunner::Expand(matrix);
  ASSERT_EQ(jobs.size(), 8u);
  for (CampaignJob& job : jobs) {
    job.config.checkpoint_dir = dir;
    job.config.checkpoint_every_ops = 400;
    job.config.job_index = job.index;  // the snapshot names the runner uses
    ASSERT_TRUE(CrashAfterCheckpoints(job.config, job.strategy, 1).ok()) << job.index;
    job.config.resume = true;
  }
  RunnerOptions resume_options;
  resume_options.jobs = 8;
  MatrixResult resumed8 = CampaignRunner(resume_options).RunJobs(jobs);
  ASSERT_EQ(resumed8.FailedJobs(), 0);
  EXPECT_EQ(RenderCampaignSummaryJson(resumed8), expected);

  // A second resume finds every job's final snapshot and short-circuits to
  // the stored results — still byte-identical, now at --jobs 1.
  RunnerOptions single;
  single.jobs = 1;
  MatrixResult resumed1 = CampaignRunner(single).RunJobs(jobs);
  ASSERT_EQ(resumed1.FailedJobs(), 0);
  EXPECT_EQ(RenderCampaignSummaryJson(resumed1), expected);
}

// Save lands each snapshot on disk before it returns, with the naming scheme
// the resume scan expects, so a crash right after it leaves them resumable.
TEST(ResumeDeterminismTest, SavedSnapshotsSurviveACrash) {
  CampaignConfig config = BaseConfig(Flavor::kGluster);
  config.checkpoint_dir = FreshDir("saved");
  config.checkpoint_every_ops = 400;
  ASSERT_TRUE(CrashAfterCheckpoints(config, "Themis", 2).ok());

  std::vector<std::string> snapshots = ListJobSnapshotPaths(config.checkpoint_dir, 0);
  ASSERT_EQ(snapshots.size(), 2u);  // ordinals 2 and 1, newest first
  EXPECT_NE(snapshots[0].find("job-0-2.ckpt"), std::string::npos);
  EXPECT_NE(snapshots[1].find("job-0-1.ckpt"), std::string::npos);
  Result<LoadedSnapshot> newest = ReadSnapshotFile(snapshots[0]);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->kind, SnapshotKind::kMidCampaign);
}

// Env-faulted campaigns resume bit-identically too (snapshot format v4):
// the checkpoint can land between a kEnvCrashNode and its scheduled restart,
// so the armed rates, slow-disk windows and the restart schedule must all
// ride through the EnvFaultInjector record in the mid-campaign snapshot.
TEST(ResumeDeterminismTest, EnvFaultedCampaignResumesToUninterruptedDigest) {
  for (Flavor flavor : {Flavor::kGluster, Flavor::kHdfs}) {
    const std::string flavor_name(FlavorName(flavor));
    SCOPED_TRACE(flavor_name);
    CampaignConfig checkpointed = BaseConfig(flavor);
    checkpointed.env_faults = true;
    checkpointed.checkpoint_dir = FreshDir("env_" + flavor_name);
    // A tight cadence: many checkpoints land inside armed fault schedules
    // (including between a crash and its restart) rather than between them.
    checkpointed.checkpoint_every_ops = 200;
    ASSERT_TRUE(CrashAfterCheckpoints(checkpointed, "Themis", 2).ok());
    ExpectResumeMatchesUninterrupted(checkpointed, "Themis");
  }
}

// Telemetry collection rides through kill/resume: an interrupted+resumed
// telemetry campaign reproduces the uninterrupted event stream exactly
// (every event enters the digest).
TEST(ResumeDeterminismTest, TelemetryStreamSurvivesResume) {
  CampaignConfig checkpointed = BaseConfig(Flavor::kLeo);
  checkpointed.collect_telemetry = true;
  checkpointed.checkpoint_dir = FreshDir("telemetry");
  checkpointed.checkpoint_every_ops = 500;
  ASSERT_TRUE(CrashAfterCheckpoints(checkpointed, "Themis", 2).ok());
  ExpectResumeMatchesUninterrupted(checkpointed, "Themis");
}

// Warm vs. cold memos. A resumed session starts with an empty futile-skew
// memo in the fault injector and a cold CRUSH mapping cache, while the
// uninterrupted run carries both warm, so "resume equals uninterrupted" is
// the differential check for them. The historical corpus plus env faults
// keeps storage faults (whose skew passes the memo skips) active most of the
// time; each row's seed and cadence were found by scanning seeds until a
// storage-effect fault was active at both crashes, and the at_crash check
// asserts that, so a change that moves the crash points fails here instead
// of comparing two cold starts.
bool StorageFaultActive(const CampaignSession& session) {
  for (const FaultRuntime& fault : session.injector().faults()) {
    if (!fault.active) {
      continue;
    }
    switch (fault.spec.effect) {
      case EffectKind::kCpuSkew:
      case EffectKind::kNetworkSkew:
      case EffectKind::kCrashNode:
        break;
      default:
        return true;  // ApplyContinuousEffects' storage branch
    }
  }
  return false;
}

TEST(ResumeDeterminismTest, HistoricalCorpusResumesWithColdMemos) {
  struct Row {
    Flavor flavor;
    uint64_t seed;
    uint64_t every_ops;
  };
  for (const Row& row : {Row{Flavor::kGluster, 3, 200}, Row{Flavor::kHdfs, 20, 200},
                         Row{Flavor::kCeph, 3, 400}, Row{Flavor::kLeo, 1, 200},
                         Row{Flavor::kGeo, 3, 200}}) {
    const std::string flavor_name(FlavorName(row.flavor));
    SCOPED_TRACE(flavor_name);
    CampaignConfig checkpointed = BaseConfig(row.flavor);
    checkpointed.seed = row.seed;
    checkpointed.fault_set = FaultSet::kHistorical;
    checkpointed.env_faults = true;
    checkpointed.checkpoint_dir = FreshDir("historical_" + flavor_name);
    checkpointed.checkpoint_every_ops = row.every_ops;
    auto expect_storage_fault = [](const CampaignSession& session) {
      EXPECT_TRUE(StorageFaultActive(session))
          << "no storage-effect fault is active at the crash; pick another seed";
    };
    ASSERT_TRUE(
        CrashAfterCheckpoints(checkpointed, "Themis", 1, expect_storage_fault).ok());
    checkpointed.resume = true;  // crash the resumed session too
    ASSERT_TRUE(
        CrashAfterCheckpoints(checkpointed, "Themis", 1, expect_storage_fault).ok());
    ExpectResumeMatchesUninterrupted(checkpointed, "Themis");
  }
}

}  // namespace
}  // namespace themis
