// Mid-rebalance crash/recovery double-check (DESIGN.md §14): for every
// flavor, crashing the balancer in the middle of a rebalance round and
// letting it restart from persisted state must converge to the same
// load-balancing verdict as the uninterrupted twin run. The differential
// oracle is the unit-level form of the detector's kCrashRecovery dimension:
// a flavor whose recovery diverges here is exactly what that failure kind
// exists to flag.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/dfs/flavors/ceph_like.h"
#include "src/dfs/flavors/factory.h"
#include "src/dfs/flavors/gluster_like.h"
#include "src/dfs/flavors/hdfs_like.h"
#include "src/dfs/flavors/leo_like.h"
#include "src/faults/env_fault.h"
#include "src/monitor/detector.h"

namespace themis {
namespace {

// Deterministic heavy load, then a capacity squeeze on one brick so the
// next rebalance round has a real donor with many chunks to move — the
// window the crash must land inside.
void PopulateAndSkew(DfsCluster& dfs) {
  for (int i = 0; i < 80; ++i) {
    Operation op;
    op.kind = OpKind::kCreate;
    op.path = "/load-" + std::to_string(i);
    op.size = 6 * kGiB;
    dfs.Execute(op);
  }
  Operation shrink;
  shrink.kind = OpKind::kReduceVolume;
  shrink.brick = dfs.bricks().begin()->first;
  shrink.size = 0;  // default delta: shrink by a quarter
  for (int i = 0; i < 3; ++i) {
    dfs.Execute(shrink);
  }
}

Operation EnvOp(OpKind kind, NodeId node, uint64_t size) {
  Operation op;
  op.kind = kind;
  op.node = node;
  op.size = size;
  return op;
}

// Drives a cluster until the balancer has fully settled: no active round, no
// queued moves, no crashed balancer, no pending env recovery.
bool Settle(DfsCluster& dfs, int max_steps = 2000) {
  for (int i = 0; i < max_steps; ++i) {
    if (dfs.RebalanceDone() && !dfs.EnvRecoveryPending()) {
      return true;
    }
    dfs.AdvanceTime(Seconds(10));
  }
  return false;
}

struct RecoveryOutcome {
  bool settled = false;
  bool balanced = false;        // the LBS verdict
  double imbalance = 0.0;
  int rounds = 0;
};

// One run of the crash-recovery scenario. `crash` selects the twin: the
// uninterrupted control or the run whose balancer dies mid-rebalance and
// restarts `restart_delay_s` later.
RecoveryOutcome RunScenario(Flavor flavor, uint64_t seed, bool crash,
                            uint64_t restart_delay_s = 300) {
  std::unique_ptr<DfsCluster> cluster = MakeCluster(flavor, seed);
  EnvFaultInjector injector(seed ^ 0xc4a5eULL);
  cluster->set_env_faults(&injector);
  PopulateAndSkew(*cluster);
  cluster->TriggerRebalance();
  // Let the round make some progress so the crash lands mid-flight.
  cluster->AdvanceTime(Seconds(15));
  if (crash) {
    NodeId meta = cluster->ListMetaNodes().front();
    EXPECT_TRUE(
        cluster->Execute(EnvOp(OpKind::kEnvCrashNode, meta, restart_delay_s))
            .status.ok());
    EXPECT_TRUE(cluster->balancer_crashed());
  }
  RecoveryOutcome outcome;
  outcome.settled = Settle(*cluster);
  outcome.balanced =
      cluster->StorageImbalance() <= cluster->config().native_threshold;
  outcome.imbalance = cluster->StorageImbalance();
  outcome.rounds = cluster->completed_rebalance_rounds();
  EXPECT_FALSE(cluster->balancer_crashed());
  EXPECT_FALSE(cluster->balancer_resume_pending());
  return outcome;
}

class CrashRecoveryOracle : public testing::TestWithParam<Flavor> {};

TEST_P(CrashRecoveryOracle, RecoveredRunMatchesUninterruptedVerdict) {
  Flavor flavor = GetParam();
  RecoveryOutcome control = RunScenario(flavor, /*seed=*/11, /*crash=*/false);
  RecoveryOutcome recovered = RunScenario(flavor, /*seed=*/11, /*crash=*/true);
  ASSERT_TRUE(control.settled);
  ASSERT_TRUE(recovered.settled);
  // The paper's recovery contract: after restart, the balancer reaches the
  // same load-balanced-state verdict the uninterrupted balancer reaches. A
  // flavor breaking this equality is a kCrashRecovery failure.
  EXPECT_EQ(recovered.balanced, control.balanced)
      << "control " << control.imbalance << " vs recovered "
      << recovered.imbalance;
}

TEST_P(CrashRecoveryOracle, RecoveryIsDeterministic) {
  Flavor flavor = GetParam();
  RecoveryOutcome a = RunScenario(flavor, /*seed=*/23, /*crash=*/true);
  RecoveryOutcome b = RunScenario(flavor, /*seed=*/23, /*crash=*/true);
  ASSERT_TRUE(a.settled);
  EXPECT_EQ(a.settled, b.settled);
  EXPECT_DOUBLE_EQ(a.imbalance, b.imbalance);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.balanced, b.balanced);
}

INSTANTIATE_TEST_SUITE_P(AllFlavors, CrashRecoveryOracle,
                         testing::Values(Flavor::kGluster, Flavor::kHdfs,
                                         Flavor::kCeph, Flavor::kLeo),
                         [](const testing::TestParamInfo<Flavor>& param) {
                           return std::string(FlavorName(param.param));
                         });

// A crash while a round is active marks the round for resumption; the
// restart re-triggers it instead of abandoning the half-moved data.
TEST(CrashRecovery, InterruptedRoundResumesAfterRestart) {
  std::unique_ptr<DfsCluster> cluster = MakeCluster(Flavor::kGluster, /*seed=*/31);
  EnvFaultInjector injector(/*seed=*/31);
  cluster->set_env_faults(&injector);
  PopulateAndSkew(*cluster);
  ASSERT_TRUE(cluster->TriggerRebalance().ok());
  cluster->AdvanceTime(Seconds(15));
  ASSERT_FALSE(cluster->RebalanceDone()) << "round finished before the crash";
  NodeId meta = cluster->ListMetaNodes().front();
  ASSERT_TRUE(cluster->Execute(EnvOp(OpKind::kEnvCrashNode, meta, 120))
                  .status.ok());
  EXPECT_TRUE(cluster->balancer_crashed());
  EXPECT_TRUE(cluster->balancer_resume_pending());
  EXPECT_FALSE(cluster->RebalanceDone());
  int rounds_before = cluster->completed_rebalance_rounds();
  ASSERT_TRUE(Settle(*cluster));
  // The resumed round ran to completion after the restart.
  EXPECT_GT(cluster->completed_rebalance_rounds(), rounds_before);
  EXPECT_FALSE(cluster->balancer_resume_pending());
}

// Per-flavor restart-from-persisted-state semantics: the persisted census
// counts every flavor's crash, and flavor-local recovery state stays sane.
template <typename ClusterT>
uint32_t CrashOnce(ClusterT& cluster) {
  EnvFaultInjector injector(/*seed=*/3);
  cluster.set_env_faults(&injector);
  NodeId meta = cluster.ListMetaNodes().front();
  EXPECT_TRUE(cluster.Execute(EnvOp(OpKind::kEnvCrashNode, meta, 60))
                  .status.ok());
  cluster.AdvanceTime(Seconds(120));
  EXPECT_FALSE(cluster.balancer_crashed());
  cluster.set_env_faults(nullptr);
  return cluster.balancer_crashes();
}

TEST(CrashRecovery, EveryFlavorCountsBalancerCrashes) {
  GlusterLikeCluster gluster;
  EXPECT_EQ(CrashOnce(gluster), 1u);
  HdfsLikeCluster hdfs;
  EXPECT_EQ(CrashOnce(hdfs), 1u);
  CephLikeCluster ceph;
  EXPECT_EQ(CrashOnce(ceph), 1u);
  LeoLikeCluster leo;
  EXPECT_EQ(CrashOnce(leo), 1u);
  // LeoFS reloads the ring from its persisted plantings on takeover: every
  // serving brick must still be planted after the restart.
  EXPECT_GT(leo.ring().target_count(), 0u);
}

TEST(CrashRecovery, CrashRecoveryIsItsOwnFailureDimension) {
  EXPECT_STREQ(ImbalanceDimensionName(ImbalanceDimension::kCrashRecovery),
               "crash-recovery");
  // And it is distinct from every pre-existing dimension name.
  EXPECT_STRNE(ImbalanceDimensionName(ImbalanceDimension::kCrashRecovery),
               ImbalanceDimensionName(ImbalanceDimension::kNodeHealth));
}

}  // namespace
}  // namespace themis
