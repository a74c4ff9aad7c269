// Structural tests for the baseline generation strategies: each must explore
// exactly the input space the paper ascribes to it.

#include <gtest/gtest.h>

#include <set>

#include "src/baselines/alternate.h"
#include "src/baselines/concurrent.h"
#include "src/baselines/fix_conf.h"
#include "src/baselines/fix_req.h"
#include "src/baselines/themis_minus.h"
#include "src/core/strategy_registry.h"
#include "src/dfs/flavors/factory.h"

namespace themis {
namespace {

struct StrategyRig {
  StrategyRig() : dfs(MakeCluster(Flavor::kGluster, 55)), rng(55) {
    model.SyncFromDfs(*dfs);
  }
  std::unique_ptr<DfsCluster> dfs;
  InputModel model;
  Rng rng;
};

TEST(FixReq, RequestMixIsFixed) {
  StrategyRig rig;
  FixReqStrategy strategy(rig.model, rig.rng);
  // Every test case carries exactly the canned request operators
  // (create/append/open/delete) — never any other file operator.
  for (int i = 0; i < 100; ++i) {
    OpSeq seq = strategy.Next();
    int requests = 0;
    for (const Operation& op : seq.ops) {
      if (ClassOf(op.kind) == OpClass::kFile) {
        ++requests;
        EXPECT_TRUE(op.kind == OpKind::kCreate || op.kind == OpKind::kAppend ||
                    op.kind == OpKind::kOpen || op.kind == OpKind::kDelete)
            << "Fix_req must not vary its request workload: "
            << std::string(OpKindName(op.kind));
      }
    }
    EXPECT_EQ(requests, 4);
    EXPECT_TRUE(seq.HasConfigOps()) << "Fix_req must explore configurations";
    strategy.OnOutcome(seq, ExecOutcome{});
  }
}

TEST(FixConf, ExploresOnlyRequestsAfterPrelude) {
  StrategyRig rig;
  FixConfStrategy strategy(rig.model, rig.rng);
  OpSeq prelude = strategy.Next();
  EXPECT_TRUE(prelude.HasConfigOps()) << "the first test case is the fixed setup";
  strategy.OnOutcome(prelude, ExecOutcome{});
  for (int i = 0; i < 100; ++i) {
    OpSeq seq = strategy.Next();
    EXPECT_FALSE(seq.HasConfigOps())
        << "Fix_conf must not vary the configuration after setup";
    EXPECT_TRUE(seq.HasRequestOps());
    strategy.OnOutcome(seq, ExecOutcome{});
  }
}

TEST(FixConf, ReplaysPreludeAfterClusterReset) {
  StrategyRig rig;
  FixConfStrategy strategy(rig.model, rig.rng);
  strategy.OnOutcome(strategy.Next(), ExecOutcome{});
  (void)strategy.Next();
  ExecOutcome failed;
  failed.failures.emplace_back();
  strategy.OnOutcome(OpSeq{}, failed);
  EXPECT_TRUE(strategy.Next().HasConfigOps()) << "setup must be reapplied after reset";
}

TEST(Alternate, SwitchesConfigurationOnConvergence) {
  StrategyRig rig;
  AlternateStrategy strategy(rig.model, rig.rng);
  OpSeq first = strategy.Next();
  EXPECT_TRUE(first.HasConfigOps()) << "an epoch starts with a configuration";
  strategy.OnOutcome(first, ExecOutcome{});
  // Request exploration with no new coverage for `patience` iterations
  // triggers the next configuration epoch.
  for (int i = 0; i < AlternateStrategy::kConvergencePatience; ++i) {
    OpSeq seq = strategy.Next();
    EXPECT_FALSE(seq.HasConfigOps()) << "stale iteration " << i;
    strategy.OnOutcome(seq, ExecOutcome{});  // zero new coverage
  }
  OpSeq next_epoch = strategy.Next();
  EXPECT_TRUE(next_epoch.HasConfigOps());
}

TEST(Alternate, NewCoverageDelaysSwitching) {
  StrategyRig rig;
  AlternateStrategy strategy(rig.model, rig.rng);
  strategy.OnOutcome(strategy.Next(), ExecOutcome{});
  for (int i = 0; i < 4 * AlternateStrategy::kConvergencePatience; ++i) {
    OpSeq seq = strategy.Next();
    EXPECT_FALSE(seq.HasConfigOps()) << "coverage keeps the epoch alive";
    ExecOutcome outcome;
    outcome.new_coverage = 5;
    strategy.OnOutcome(seq, outcome);
  }
}

TEST(Concurrent, AlwaysMixesBothSpaces) {
  StrategyRig rig;
  ConcurrentStrategy strategy(rig.model, rig.rng);
  for (int i = 0; i < 100; ++i) {
    OpSeq seq = strategy.Next();
    EXPECT_TRUE(seq.HasRequestOps());
    EXPECT_TRUE(seq.HasConfigOps());
    strategy.OnOutcome(seq, ExecOutcome{});
  }
}

TEST(ThemisMinus, IgnoresFeedback) {
  StrategyRig rig;
  ThemisMinusStrategy strategy(rig.model, rig.rng);
  // Same-length windows of random generation regardless of outcomes.
  ExecOutcome huge_gain;
  huge_gain.variance_gain = 10.0;
  for (int i = 0; i < 50; ++i) {
    OpSeq seq = strategy.Next();
    EXPECT_GE(seq.size(), 1u);
    EXPECT_LE(seq.size(), static_cast<size_t>(kMaxOpSeqLen));
    strategy.OnOutcome(seq, huge_gain);
  }
}

// Themis⁻ is Themis without feedback (§6.3): before any outcome arrives,
// Themis only generates, so both strategies built from the registry with the
// same options on identical rigs must draw identical sequences, env-fault
// operators included.
TEST(ThemisMinus, DrawsWhatThemisDrawsBeforeFeedback) {
  StrategyOptions options;
  options.env_fault_share = 0.2;
  StrategyRig themis_rig;
  StrategyRig minus_rig;
  auto themis = StrategyRegistry::Instance().Make("Themis", themis_rig.model, themis_rig.rng,
                                                  options);
  auto minus = StrategyRegistry::Instance().Make("Themis-", minus_rig.model, minus_rig.rng,
                                                 options);
  ASSERT_TRUE(themis.ok() && minus.ok());
  bool any_env_op = false;
  for (int i = 0; i < 16; ++i) {  // Themis's initial seed population
    OpSeq expected = (*themis)->Next();
    OpSeq seq = (*minus)->Next();
    EXPECT_EQ(seq.ToString(), expected.ToString()) << "sequence " << i;
    any_env_op = any_env_op || seq.HasEnvFaultOps();
  }
  EXPECT_TRUE(any_env_op) << "Themis- must honor the campaign's env-fault share";
}

TEST(Strategies, NamesAreDistinct) {
  StrategyRig rig;
  FixReqStrategy fix_req(rig.model, rig.rng);
  FixConfStrategy fix_conf(rig.model, rig.rng);
  AlternateStrategy alternate(rig.model, rig.rng);
  ConcurrentStrategy concurrent(rig.model, rig.rng);
  ThemisMinusStrategy themis_minus(rig.model, rig.rng);
  std::set<std::string_view> names = {fix_req.name(), fix_conf.name(), alternate.name(),
                                      concurrent.name(), themis_minus.name()};
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace themis
