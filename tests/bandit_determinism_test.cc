// Bandit scheduling determinism (DESIGN.md §16).
//
// The bandit reallocates per-round budget between strategies using only the
// campaign Rng and the per-arm statistics that ride in the v6 snapshot, so
// bandit-enabled campaigns must be bit-identical across --jobs counts and
// across kill/resume cycles — the same guarantee resume_determinism_test
// pins for the plain Themis strategy. Plus the policy property itself:
// on a synthetic two-strategy fixture the bandit shifts budget toward the
// arm that keeps producing novelty.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot_io.h"
#include "src/core/bandit.h"
#include "src/core/input_model.h"
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
  config.transition_weight = 0.5;  // bandit campaigns blend both signals
  return config;
}

TEST(BanditDeterminismTest, RegisteredAndConstructible) {
  ASSERT_TRUE(StrategyRegistry::Instance().Contains("Bandit"));
  Rng rng(1);
  InputModel model;
  auto made = StrategyRegistry::Instance().Make("Bandit", model, rng);
  ASSERT_TRUE(made.ok());
  EXPECT_EQ((*made)->name(), "Bandit");
}

// Same seed, same config => identical digests run-to-run (the bandit draws
// only from the campaign Rng, never from wall clock or addresses).
TEST(BanditDeterminismTest, RepeatedRunsAreBitIdentical) {
  for (Flavor flavor : {Flavor::kGluster, Flavor::kCeph}) {
    Result<CampaignResult> a = Campaign(BaseConfig(flavor)).Run("Bandit");
    Result<CampaignResult> b = Campaign(BaseConfig(flavor)).Run("Bandit");
    ASSERT_TRUE(a.ok() && b.ok()) << FlavorName(flavor);
    EXPECT_EQ(a->Digest(), b->Digest()) << FlavorName(flavor);
    EXPECT_EQ(a->transition_coverage, b->transition_coverage)
        << FlavorName(flavor);
  }
}

// Matrix of bandit campaigns across 4 flavors x 2 seeds: the rendered
// summary JSON must be byte-identical at --jobs 1, 2 and 8.
TEST(BanditDeterminismTest, SummaryByteIdenticalAcrossJobsCounts) {
  CampaignMatrix matrix;
  matrix.flavors = {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph,
                    Flavor::kLeo};
  matrix.strategies = {"Bandit"};
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

// Kill/resume parity: a bandit campaign killed at a checkpoint and resumed
// lands on the uninterrupted digest — the arm statistics, active arm and
// round position all ride through the v6 snapshot strategy record.
TEST(BanditDeterminismTest, KillResumeConvergesToUninterruptedDigest) {
  for (Flavor flavor : {Flavor::kGluster, Flavor::kHdfs}) {
    const std::string flavor_name(FlavorName(flavor));
    SCOPED_TRACE(flavor_name);
    CampaignConfig checkpointed = BaseConfig(flavor);
    checkpointed.checkpoint_dir = FreshDir("crash_" + flavor_name);
    // A cadence that is not a multiple of the bandit round length, so
    // checkpoints land mid-round and round_position_ must be restored.
    checkpointed.checkpoint_every_ops = 350;
    Result<CampaignTick> first = CrashAfterCheckpoints(checkpointed, "Bandit", 1);
    ASSERT_TRUE(first.ok());

    checkpointed.resume = true;  // die once more, one checkpoint further in
    Result<CampaignTick> second = CrashAfterCheckpoints(checkpointed, "Bandit", 1);
    ASSERT_TRUE(second.ok());
    EXPECT_GT(second->total_ops, first->total_ops);  // continued, not restarted
    ExpectResumeMatchesUninterrupted(checkpointed, "Bandit");
  }
}

// --- Budget-shift fixture -------------------------------------------------

// A synthetic strategy whose outcomes the test scripts: the bandit sees its
// Next() sequences but the reward comes from the ExecOutcome the test feeds
// back, so we can make one arm "hot" and one "cold" deterministically.
class FixedStrategy : public Strategy {
 public:
  explicit FixedStrategy(std::string name) : name_(std::move(name)) {}
  std::string_view name() const override { return name_; }
  OpSeq Next() override { return OpSeq{}; }
  void OnOutcome(const OpSeq&, const ExecOutcome&) override {}
  void SaveState(SnapshotWriter&) const override {}
  Status RestoreState(SnapshotReader&) override { return Status::Ok(); }

 private:
  std::string name_;
};

BanditStrategy MakeTwoArmBandit(Rng& rng) {
  std::vector<BanditStrategy::Arm> arms;
  BanditStrategy::Arm hot;
  hot.name = "hot";
  hot.strategy = std::make_unique<FixedStrategy>("hot");
  arms.push_back(std::move(hot));
  BanditStrategy::Arm cold;
  cold.name = "cold";
  cold.strategy = std::make_unique<FixedStrategy>("cold");
  arms.push_back(std::move(cold));
  BanditConfig config;
  config.round_length = 4;
  config.epsilon = 0.1;
  return BanditStrategy(std::move(arms), rng, config);
}

// One arm keeps finding new transitions, the other never does: after a few
// hundred pulls the productive arm must hold the clear majority of the
// budget, not the 50/50 a round-robin scheduler would give.
TEST(BanditBudgetShift, BudgetFlowsTowardTheNovelArm) {
  Rng rng(42);
  BanditStrategy bandit = MakeTwoArmBandit(rng);
  ExecOutcome novel;
  novel.new_transitions = 1;
  ExecOutcome barren;
  for (int i = 0; i < 400; ++i) {
    OpSeq seq = bandit.Next();
    bool hot_active = bandit.active_arm() == 0;
    bandit.OnOutcome(seq, hot_active ? novel : barren);
  }
  uint64_t hot_pulls = bandit.arms()[0].pulls;
  uint64_t cold_pulls = bandit.arms()[1].pulls;
  EXPECT_EQ(hot_pulls + cold_pulls, 400u);
  // The hot arm should dominate; the cold arm keeps only the exploration
  // floor (epsilon draws plus the UCB bonus visits).
  EXPECT_GT(hot_pulls, 3 * cold_pulls) << hot_pulls << " vs " << cold_pulls;
  EXPECT_GT(cold_pulls, 0u);  // but exploration never starves an arm forever
}

// Candidates pay the same way new transitions do.
TEST(BanditBudgetShift, CandidateRewardsCountToo) {
  ExecOutcome candidate_only;
  candidate_only.candidates = 2;
  EXPECT_EQ(BanditStrategy::Reward(candidate_only), 1.0);
  ExecOutcome both;
  both.candidates = 1;
  both.new_transitions = 1;
  EXPECT_EQ(BanditStrategy::Reward(both), 2.0);
  ExecOutcome neither;
  EXPECT_EQ(BanditStrategy::Reward(neither), 0.0);
}

// The arm table round-trips byte-stably mid-round (the serialization the
// kill/resume test exercises end-to-end, pinned here at the unit level).
TEST(BanditBudgetShift, ArmTableRoundTripsByteStably) {
  Rng rng(7);
  BanditStrategy original = MakeTwoArmBandit(rng);
  ExecOutcome novel;
  novel.new_transitions = 1;
  for (int i = 0; i < 10; ++i) {  // not a multiple of round_length = 4
    OpSeq seq = original.Next();
    original.OnOutcome(seq, novel);
  }
  SnapshotWriter first;
  original.SaveState(first);

  Rng rng2(7);
  BanditStrategy restored = MakeTwoArmBandit(rng2);
  SnapshotReader reader(first.buffer());
  ASSERT_TRUE(restored.RestoreState(reader).ok());
  ASSERT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.active_arm(), original.active_arm());
  EXPECT_EQ(restored.arms()[0].pulls, original.arms()[0].pulls);
  EXPECT_EQ(restored.arms()[1].reward_sum, original.arms()[1].reward_sum);

  SnapshotWriter second;
  restored.SaveState(second);
  EXPECT_EQ(first.buffer(), second.buffer());
}

}  // namespace
}  // namespace themis
