// Determinism of every registered strategy (DESIGN.md §11, §16).
//
// Each strategy draws only from the campaign Rng and keeps its schedule
// state (seed pools, climb episodes, alternation counters) in the snapshot
// strategy record, so every strategy's campaigns must be bit-identical run
// to run, across --jobs counts and across kill/resume cycles — the same
// guarantee resume_determinism_test pins for Themis alone. The loops run
// over the registry, so a newly registered strategy is covered without an
// edit here. (The file keeps the name it had when it covered only the
// bandit scheduler, since removed.)

#include <gtest/gtest.h>

#include <string>

#include "src/core/strategy_registry.h"
#include "src/harness/campaign.h"
#include "src/harness/runner.h"
#include "src/harness/telemetry_export.h"
#include "tests/checkpoint_helpers.h"

namespace themis {
namespace {

CampaignConfig BaseConfig(Flavor flavor) {
  CampaignConfig config;
  config.flavor = flavor;
  config.seed = 9001;
  config.budget = Hours(2);
  config.transition_weight = 0.5;  // Themis blends both signals
  return config;
}

// Same seed, same config => identical digests run to run.
TEST(StrategyDeterminismTest, RepeatedRunsAreBitIdentical) {
  for (const std::string& strategy : StrategyRegistry::Instance().Names()) {
    for (Flavor flavor : {Flavor::kGluster, Flavor::kCeph}) {
      SCOPED_TRACE(strategy + " " + std::string(FlavorName(flavor)));
      Result<CampaignResult> a = Campaign(BaseConfig(flavor)).Run(strategy);
      Result<CampaignResult> b = Campaign(BaseConfig(flavor)).Run(strategy);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->Digest(), b->Digest());
      EXPECT_EQ(a->transition_coverage, b->transition_coverage);
    }
  }
}

// Every strategy across 4 flavors x 2 seeds: the rendered summary JSON must
// be byte-identical at --jobs 1, 2 and 8.
TEST(StrategyDeterminismTest, SummaryByteIdenticalAcrossJobsCounts) {
  CampaignMatrix matrix;
  matrix.flavors = {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph, Flavor::kLeo};
  matrix.strategies = StrategyRegistry::Instance().Names();
  matrix.seeds = 2;
  matrix.matrix_seed = 777;
  matrix.base.budget = Hours(2);
  matrix.base.transition_weight = 0.5;

  std::string expected;
  for (int jobs : {1, 2, 8}) {
    RunnerOptions options;
    options.jobs = jobs;
    MatrixResult result = CampaignRunner(options).Run(matrix);
    ASSERT_EQ(result.FailedJobs(), 0) << "jobs " << jobs;
    std::string rendered = RenderCampaignSummaryJson(result);
    if (expected.empty()) {
      expected = rendered;
    } else {
      EXPECT_EQ(rendered, expected) << "jobs " << jobs;
    }
  }
}

// Kill/resume parity: a campaign killed at a checkpoint, resumed, killed
// again one checkpoint further in and resumed once more lands on the
// uninterrupted digest, for every strategy's pools and counters.
TEST(StrategyDeterminismTest, KillResumeConvergesToUninterruptedDigest) {
  for (const std::string& strategy : StrategyRegistry::Instance().Names()) {
    for (Flavor flavor : {Flavor::kGluster, Flavor::kHdfs}) {
      const std::string label = strategy + "_" + std::string(FlavorName(flavor));
      SCOPED_TRACE(label);
      CampaignConfig checkpointed = BaseConfig(flavor);
      checkpointed.checkpoint_dir = FreshDir("crash_" + label);
      checkpointed.checkpoint_every_ops = 350;
      Result<CampaignTick> first = CrashAfterCheckpoints(checkpointed, strategy, 1);
      ASSERT_TRUE(first.ok()) << first.status().ToString();

      checkpointed.resume = true;  // die once more, one checkpoint further in
      Result<CampaignTick> second = CrashAfterCheckpoints(checkpointed, strategy, 1);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      EXPECT_GT(second->total_ops, first->total_ops);  // continued, not restarted
      ExpectResumeMatchesUninterrupted(checkpointed, strategy);
    }
  }
}

}  // namespace
}  // namespace themis
