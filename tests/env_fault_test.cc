// Environment-fault input dimension (DESIGN.md §14): the fault-schedule
// grammar stays inside its operand bounds through generation, mutation and
// repair; schedules replay bit-identically for a fixed seed; the injector's
// verdicts match the armed schedule; and the env-gated registry bugs are
// reachable only when a campaign actually runs with env faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot_io.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/core/mutator.h"
#include "src/core/replay.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/env_fault.h"
#include "src/faults/fault_registry.h"
#include "src/harness/campaign.h"

namespace themis {
namespace {

// Operand bounds of the env-fault grammar (src/dfs/operation.h).
testing::AssertionResult EnvOperandsInGrammar(const Operation& op) {
  switch (op.kind) {
    case OpKind::kEnvMsgLoss:
    case OpKind::kEnvMsgReorder:
    case OpKind::kEnvMsgDuplicate:
    case OpKind::kEnvMsgCorrupt:
      if (op.size < kEnvMinRatePermille || op.size > kEnvMaxRatePermille) {
        return testing::AssertionFailure()
               << OpKindName(op.kind) << " rate out of bounds: " << op.ToString();
      }
      return testing::AssertionSuccess();
    case OpKind::kEnvSlowDisk:
      if (op.node == kInvalidNode) {
        return testing::AssertionFailure() << "slow_disk without a node";
      }
      if (op.size < kEnvMinSlowFactorPercent ||
          op.size > kEnvMaxSlowFactorPercent) {
        return testing::AssertionFailure()
               << "slow_disk factor out of bounds: " << op.ToString();
      }
      return testing::AssertionSuccess();
    case OpKind::kEnvCrashNode:
      if (op.node == kInvalidNode) {
        return testing::AssertionFailure() << "crash_node without a node";
      }
      if (op.size < kEnvMinCrashDelaySeconds ||
          op.size > kEnvMaxCrashDelaySeconds) {
        return testing::AssertionFailure()
               << "crash_node restart delay out of bounds: " << op.ToString();
      }
      return testing::AssertionSuccess();
    case OpKind::kEnvClearFaults:
      return testing::AssertionSuccess();
    default:
      return testing::AssertionFailure()
             << OpKindName(op.kind) << " is not an env_fault operator";
  }
}

struct Fixture {
  std::unique_ptr<DfsCluster> cluster;
  InputModel model;
  Rng rng{0xe4fa17ULL};

  explicit Fixture(Flavor flavor = Flavor::kGluster)
      : cluster(MakeCluster(flavor, /*seed=*/7)) {
    model.SyncFromDfs(*cluster);
  }
};

TEST(EnvFaultGrammar, GeneratedEnvOpsStayInBoundsAndActuallyAppear) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  generator.set_env_fault_share(0.5);
  int env_ops = 0;
  for (int trial = 0; trial < 200; ++trial) {
    OpSeq seq = generator.Generate(fx.rng);
    for (const Operation& op : seq.ops) {
      if (!IsEnvFaultOp(op.kind)) {
        continue;
      }
      ++env_ops;
      EXPECT_TRUE(EnvOperandsInGrammar(op));
    }
  }
  // With a 0.5 share over ~200 sequences the schedule must be well exercised.
  EXPECT_GT(env_ops, 100);
}

TEST(EnvFaultGrammar, ZeroShareNeverDrawsEnvOps) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);  // default share 0.0
  for (int trial = 0; trial < 100; ++trial) {
    OpSeq seq = generator.Generate(fx.rng);
    for (const Operation& op : seq.ops) {
      EXPECT_FALSE(IsEnvFaultOp(op.kind)) << op.ToString();
    }
  }
}

TEST(EnvFaultGrammar, EnvClassDrawsCoverEveryOperator) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  std::vector<int> seen(kTotalOpKindCount, 0);
  for (int trial = 0; trial < 400; ++trial) {
    Operation op = generator.GenerateOpOfClass(OpClass::kEnvFault, fx.rng);
    ASSERT_TRUE(IsEnvFaultOp(op.kind)) << op.ToString();
    ASSERT_TRUE(EnvOperandsInGrammar(op));
    ++seen[static_cast<size_t>(op.kind)];
  }
  for (int i = kOpKindCount; i < kTotalOpKindCount; ++i) {
    EXPECT_GT(seen[static_cast<size_t>(i)], 0)
        << OpKindName(OpKindFromTotalIndex(i)) << " never drawn";
  }
}

TEST(EnvFaultGrammar, MutationKeepsEnvOpsInBounds) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  generator.set_env_fault_share(0.5);
  OpSeqMutator mutator(fx.model, generator);
  OpSeq seq = generator.Generate(fx.rng);
  int env_ops = 0;
  for (int round = 0; round < 300; ++round) {
    seq = mutator.Mutate(seq, fx.rng);
    for (const Operation& op : seq.ops) {
      if (!IsEnvFaultOp(op.kind)) {
        continue;
      }
      ++env_ops;
      ASSERT_TRUE(EnvOperandsInGrammar(op)) << "after mutation round " << round;
    }
  }
  EXPECT_GT(env_ops, 0);
}

TEST(EnvFaultGrammar, RepairClampsOutOfBoundsEnvOperands) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  OpSeqMutator mutator(fx.model, generator);
  OpSeq seq;
  Operation hot_rate;
  hot_rate.kind = OpKind::kEnvMsgLoss;
  hot_rate.size = 99999;  // beyond kEnvMaxRatePermille
  seq.ops.push_back(hot_rate);
  Operation cold_rate;
  cold_rate.kind = OpKind::kEnvMsgCorrupt;
  cold_rate.size = 0;  // below kEnvMinRatePermille
  seq.ops.push_back(cold_rate);
  Operation slow;
  slow.kind = OpKind::kEnvSlowDisk;
  slow.node = 999999;  // not in the model
  slow.size = 5;       // below kEnvMinSlowFactorPercent
  seq.ops.push_back(slow);
  Operation crash;
  crash.kind = OpKind::kEnvCrashNode;
  crash.node = 999999;
  crash.size = 7 * 24 * 3600;  // a week: beyond kEnvMaxCrashDelaySeconds
  seq.ops.push_back(crash);
  mutator.Repair(seq, fx.rng);
  EXPECT_EQ(seq.ops[0].size, kEnvMaxRatePermille);
  EXPECT_EQ(seq.ops[1].size, kEnvMinRatePermille);
  EXPECT_TRUE(fx.model.HasStorageNode(seq.ops[2].node));
  EXPECT_EQ(seq.ops[2].size, kEnvMinSlowFactorPercent);
  EXPECT_TRUE(fx.model.HasStorageNode(seq.ops[3].node));
  EXPECT_EQ(seq.ops[3].size, kEnvMaxCrashDelaySeconds);
  for (const Operation& op : seq.ops) {
    EXPECT_TRUE(EnvOperandsInGrammar(op));
  }
}

TEST(EnvFaultGrammar, ReproductionLogRoundTripsEveryEnvOperator) {
  Fixture fx;
  OpSeq seq;
  for (int i = kOpKindCount; i < kTotalOpKindCount; ++i) {
    OpKind kind = OpKindFromTotalIndex(i);
    Operation op;
    op.kind = kind;
    switch (kind) {
      case OpKind::kEnvMsgLoss:
      case OpKind::kEnvMsgReorder:
      case OpKind::kEnvMsgDuplicate:
      case OpKind::kEnvMsgCorrupt:
        op.size = 250;
        break;
      case OpKind::kEnvSlowDisk:
        op.node = fx.cluster->ListStorageNodes().front();
        op.size = 400;
        break;
      case OpKind::kEnvCrashNode:
        op.node = fx.cluster->ListMetaNodes().front();
        op.size = 120;
        break;
      default:
        break;  // kEnvClearFaults: no operands
    }
    seq.ops.push_back(op);
  }
  Result<OpSeq> parsed = ParseReproductionLog(FormatReproductionLog(seq));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->ops.size(), seq.ops.size());
  EXPECT_EQ(FormatReproductionLog(*parsed), FormatReproductionLog(seq));
  for (size_t i = 0; i < seq.ops.size(); ++i) {
    EXPECT_EQ(parsed->ops[i].kind, seq.ops[i].kind);
    EXPECT_EQ(parsed->ops[i].node, seq.ops[i].node);
    EXPECT_EQ(parsed->ops[i].size, seq.ops[i].size);
  }
}

// ---------------------------------------------------------------------------
// Injector semantics: the armed schedule drives the verdicts.
// ---------------------------------------------------------------------------

// Counts the injector's verdicts as they are ruled (not at arming time). A
// message may draw a reorder verdict more than once — each rotation through
// the transport queue is its own adverse event.
struct VerdictCounts {
  uint64_t messages_dropped = 0;
  uint64_t messages_reordered = 0;
  uint64_t messages_duplicated = 0;
  uint64_t messages_corrupted = 0;
  uint64_t slow_disk_windows = 0;
  uint64_t node_crashes = 0;
  uint64_t node_restarts = 0;

  bool operator==(const VerdictCounts&) const = default;
};

class CountingInjector : public EnvFaultInjector {
 public:
  using EnvFaultInjector::EnvFaultInjector;

  OpResult ExecuteEnvOp(DfsCluster& dfs, const Operation& op) override {
    OpResult result = EnvFaultInjector::ExecuteEnvOp(dfs, op);
    if (result.status.ok() && op.kind == OpKind::kEnvSlowDisk) {
      ++counts_.slow_disk_windows;
    }
    if (result.status.ok() && op.kind == OpKind::kEnvCrashNode) {
      ++counts_.node_crashes;
    }
    return result;
  }
  MessageVerdict OnMigrationMessage(DfsCluster& dfs, const ChunkMove& move) override {
    MessageVerdict verdict = EnvFaultInjector::OnMigrationMessage(dfs, move);
    switch (verdict) {
      case MessageVerdict::kDrop:
        ++counts_.messages_dropped;
        break;
      case MessageVerdict::kReorder:
        ++counts_.messages_reordered;
        break;
      case MessageVerdict::kDuplicate:
        ++counts_.messages_duplicated;
        break;
      case MessageVerdict::kCorrupt:
        ++counts_.messages_corrupted;
        break;
      case MessageVerdict::kDeliver:
        break;
    }
    return verdict;
  }
  void OnClockAdvanced(DfsCluster& dfs, SimTime now) override {
    size_t pending = pending_restarts();
    EnvFaultInjector::OnClockAdvanced(dfs, now);
    counts_.node_restarts += pending - pending_restarts();
  }

  const VerdictCounts& counts() const { return counts_; }
  // The schedule and the RNG stream: everything the next verdict reads.
  std::string StateBytes() const {
    SnapshotWriter writer;
    SaveState(writer);
    return writer.buffer();
  }

 private:
  VerdictCounts counts_;
};

// Deterministic heavy load followed by a capacity squeeze on one brick:
// the squeezed brick ends up far above fleet utilization, so the next
// rebalance round has real chunk moves to push through the transport.
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

TEST(EnvFaultInjector, EnvOpsAreUnavailableWithoutAnInjector) {
  Fixture fx;
  OpResult result =
      fx.cluster->Execute(EnvOp(OpKind::kEnvMsgLoss, kInvalidNode, 100));
  EXPECT_FALSE(result.status.ok());
}

struct FaultedRunOutcome {
  VerdictCounts counts;
  std::string injector_state;
  double imbalance = 0.0;
  uint64_t ops = 0;

  bool operator==(const FaultedRunOutcome&) const = default;
};

// One faulted run: populate, arm full-tilt message loss, grow the topology
// and rebalance to completion under the armed schedule.
FaultedRunOutcome RunMessageLossScenario(uint64_t cluster_seed,
                                         uint64_t injector_seed) {
  std::unique_ptr<DfsCluster> cluster = MakeCluster(Flavor::kGluster, cluster_seed);
  CountingInjector injector(injector_seed);
  cluster->set_env_faults(&injector);
  PopulateAndSkew(*cluster);
  EXPECT_TRUE(cluster
                  ->Execute(EnvOp(OpKind::kEnvMsgLoss, kInvalidNode,
                                  kEnvMaxRatePermille))
                  .status.ok());
  cluster->TriggerRebalance();
  EXPECT_FALSE(cluster->RebalanceDone()) << "squeeze produced no moves";
  for (int i = 0; i < 600 && !cluster->RebalanceDone(); ++i) {
    cluster->AdvanceTime(Seconds(10));
  }
  EXPECT_TRUE(cluster->RebalanceDone());
  return FaultedRunOutcome{injector.counts(), injector.StateBytes(),
                           cluster->StorageImbalance(), cluster->total_ops_executed()};
}

TEST(EnvFaultInjector, MessageLossStatsMatchTheArmedSchedule) {
  FaultedRunOutcome outcome = RunMessageLossScenario(42, 7);
  // A 50% loss rate over a real migration queue must drop messages, and the
  // less severe verdicts never fire because loss wins the severity order.
  EXPECT_GT(outcome.counts.messages_dropped, 0u);
  EXPECT_EQ(outcome.counts.messages_reordered, 0u);
  EXPECT_EQ(outcome.counts.messages_duplicated, 0u);
  EXPECT_EQ(outcome.counts.messages_corrupted, 0u);
  EXPECT_EQ(outcome.counts.node_crashes, 0u);
}

TEST(EnvFaultInjector, FaultedRunsReplayBitIdentically) {
  FaultedRunOutcome first = RunMessageLossScenario(42, 7);
  FaultedRunOutcome second = RunMessageLossScenario(42, 7);
  EXPECT_EQ(first, second);
  // A different injector seed draws a different verdict sequence; the drop
  // *count* may coincide, but the injector's RNG stream must not.
  FaultedRunOutcome other = RunMessageLossScenario(42, 8);
  EXPECT_NE(first.counts.messages_dropped, 0u);
  EXPECT_NE(other.counts.messages_dropped, 0u);
  EXPECT_NE(first.injector_state, other.injector_state);
}

TEST(EnvFaultInjector, GeneratedScheduleReplaysIdenticallyAcrossClusters) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  generator.set_env_fault_share(0.4);
  std::vector<OpSeq> seqs;
  for (int i = 0; i < 5; ++i) {
    seqs.push_back(generator.Generate(fx.rng, /*len=*/8));
  }
  auto run = [&seqs]() {
    std::unique_ptr<DfsCluster> cluster = MakeCluster(Flavor::kLeo, /*seed=*/99);
    CountingInjector injector(/*seed=*/31337);
    cluster->set_env_faults(&injector);
    uint64_t ok = 0;
    for (const OpSeq& seq : seqs) {
      ReplayOutcome outcome = ReplayLog(*cluster, seq, /*repetitions=*/2);
      ok += outcome.ops_ok;
    }
    for (int i = 0; i < 200 && !(cluster->RebalanceDone() &&
                                 !cluster->EnvRecoveryPending());
         ++i) {
      cluster->AdvanceTime(Seconds(30));
    }
    return std::tuple(ok, cluster->StorageImbalance(), cluster->total_ops_executed(),
                      injector.counts(), injector.StateBytes());
  };
  EXPECT_EQ(run(), run());
}

TEST(EnvFaultInjector, SlowDiskWindowExpiresAfterItsHour) {
  Fixture fx;
  CountingInjector injector(/*seed=*/5);
  fx.cluster->set_env_faults(&injector);
  NodeId node = fx.cluster->ListStorageNodes().front();
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvSlowDisk, node, 400))
                  .status.ok());
  EXPECT_EQ(injector.active_slow_disks(), 1u);
  EXPECT_EQ(injector.counts().slow_disk_windows, 1u);
  EXPECT_DOUBLE_EQ(injector.DiskSlowdown(*fx.cluster, node), 4.0);
  // Other nodes run at full speed.
  EXPECT_DOUBLE_EQ(injector.DiskSlowdown(*fx.cluster,
                                         fx.cluster->ListStorageNodes().back()),
                   1.0);
  fx.cluster->AdvanceTime(kEnvSlowDiskWindow + Seconds(1));
  EXPECT_DOUBLE_EQ(injector.DiskSlowdown(*fx.cluster, node), 1.0);
  EXPECT_EQ(injector.active_slow_disks(), 0u);
}

TEST(EnvFaultInjector, CrashSchedulesARestartAndTheBalancerRecovers) {
  Fixture fx;
  CountingInjector injector(/*seed=*/5);
  fx.cluster->set_env_faults(&injector);
  NodeId meta = fx.cluster->ListMetaNodes().front();
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvCrashNode, meta, 120))
                  .status.ok());
  EXPECT_TRUE(fx.cluster->balancer_crashed());
  EXPECT_TRUE(fx.cluster->EnvRecoveryPending());
  EXPECT_EQ(injector.pending_restarts(), 1u);
  EXPECT_EQ(injector.counts().node_crashes, 1u);
  // The balancer is down: a crash mid-rebalance halts, it does not limp on.
  EXPECT_FALSE(fx.cluster->TriggerRebalance().ok());
  // A second crash of the same node is rejected, not double-counted.
  EXPECT_FALSE(fx.cluster->Execute(EnvOp(OpKind::kEnvCrashNode, meta, 120))
                   .status.ok());
  EXPECT_EQ(injector.counts().node_crashes, 1u);
  fx.cluster->AdvanceTime(Seconds(130));
  EXPECT_FALSE(fx.cluster->balancer_crashed());
  EXPECT_FALSE(fx.cluster->EnvRecoveryPending());
  EXPECT_EQ(injector.pending_restarts(), 0u);
  EXPECT_EQ(injector.counts().node_restarts, 1u);
  EXPECT_TRUE(fx.cluster->TriggerRebalance().ok());
}

TEST(EnvFaultInjector, ClearFaultsDropsRatesButKeepsTheRestartSchedule) {
  Fixture fx;
  CountingInjector injector(/*seed=*/5);
  fx.cluster->set_env_faults(&injector);
  NodeId storage = fx.cluster->ListStorageNodes().front();
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvMsgLoss, kInvalidNode, 200))
                  .status.ok());
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvSlowDisk, storage, 300))
                  .status.ok());
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvCrashNode, storage, 600))
                  .status.ok());
  ASSERT_TRUE(fx.cluster
                  ->Execute(EnvOp(OpKind::kEnvClearFaults, kInvalidNode, 0))
                  .status.ok());
  EXPECT_EQ(injector.msg_loss_permille(), 0u);
  EXPECT_EQ(injector.active_slow_disks(), 0u);
  // clear_faults heals the environment going forward; it cannot un-crash a
  // node, so the scheduled recovery still happens.
  EXPECT_EQ(injector.pending_restarts(), 1u);
  EXPECT_EQ(injector.counts().node_crashes, 1u);
  fx.cluster->AdvanceTime(Seconds(700));
  EXPECT_EQ(injector.counts().node_restarts, 1u);
  EXPECT_FALSE(fx.cluster->EnvRecoveryPending());
}

// Restarts due at the same instant fire in the order their crashes were
// scheduled: the later crash's restart goes after every restart due no later.
// Each op takes half a virtual second, so a crash one op later with a
// one-second shorter delay (after a filler op) restarts at the same instant.
TEST(EnvFaultInjector, SimultaneousRestartsKeepSchedulingOrder) {
  Fixture fx;
  EnvFaultInjector injector(/*seed=*/5);
  fx.cluster->set_env_faults(&injector);
  std::vector<NodeId> storage = fx.cluster->ListStorageNodes();
  ASSERT_GE(storage.size(), 2u);
  // The later-scheduled node has the smaller id, so id order would disagree.
  const NodeId first = storage[1];
  const NodeId second = storage[0];
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvCrashNode, first, 121)).status.ok());
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvClearFaults, kInvalidNode, 0)).status.ok());
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvCrashNode, second, 120)).status.ok());

  // The record: four rates, an empty slow-disk table, then the schedule.
  SnapshotWriter writer;
  injector.SaveState(writer);
  SnapshotReader reader(writer.buffer());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(reader.U64(), 0u);
  EXPECT_EQ(reader.U64(), 0u);
  ASSERT_EQ(reader.U64(), 2u);
  const SimTime first_at = reader.I64();
  EXPECT_EQ(reader.U32(), first);
  EXPECT_EQ(reader.I64(), first_at) << "the two restarts are not simultaneous";
  EXPECT_EQ(reader.U32(), second);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  fx.cluster->AdvanceTime(Seconds(130));
  EXPECT_EQ(injector.pending_restarts(), 0u);
  EXPECT_FALSE(fx.cluster->FindStorageNode(first)->crashed);
  EXPECT_FALSE(fx.cluster->FindStorageNode(second)->crashed);
}

TEST(EnvFaultInjector, StateRoundTripsThroughASnapshot) {
  Fixture fx;
  EnvFaultInjector injector(/*seed=*/5);
  fx.cluster->set_env_faults(&injector);
  NodeId storage = fx.cluster->ListStorageNodes().front();
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvMsgLoss, kInvalidNode, 150))
                  .status.ok());
  ASSERT_TRUE(fx.cluster
                  ->Execute(EnvOp(OpKind::kEnvMsgCorrupt, kInvalidNode, 42))
                  .status.ok());
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvSlowDisk, storage, 250))
                  .status.ok());
  ASSERT_TRUE(fx.cluster->Execute(EnvOp(OpKind::kEnvCrashNode, storage, 900))
                  .status.ok());
  SnapshotWriter writer;
  injector.SaveState(writer);
  EnvFaultInjector restored(/*seed=*/999);  // seed overwritten by the record
  SnapshotReader reader(writer.buffer());
  Status status = restored.RestoreState(reader);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored.msg_loss_permille(), injector.msg_loss_permille());
  EXPECT_EQ(restored.msg_corrupt_permille(), injector.msg_corrupt_permille());
  EXPECT_EQ(restored.msg_reorder_permille(), 0u);
  EXPECT_EQ(restored.active_slow_disks(), injector.active_slow_disks());
  EXPECT_EQ(restored.pending_restarts(), injector.pending_restarts());
}

// ---------------------------------------------------------------------------
// Campaign integration: determinism and env-gated bug reachability.
// ---------------------------------------------------------------------------

CampaignConfig EnvCampaignConfig(uint64_t seed, bool env_faults) {
  CampaignConfig config;
  config.flavor = Flavor::kGluster;
  config.seed = seed;
  config.budget = Hours(2);
  config.env_faults = env_faults;
  return config;
}

bool HasEnvGatedEntry(
    const std::map<std::string, std::pair<uint64_t, int>>& trigger_stats,
    int min_triggers) {
  for (const auto& [id, stat] : trigger_stats) {
    if (id.rfind("Bug#ENV-", 0) == 0 && stat.second >= min_triggers) {
      return true;
    }
  }
  return false;
}

TEST(EnvFaultCampaign, FaultedCampaignsAreDeterministic) {
  Result<CampaignResult> first = Campaign(EnvCampaignConfig(77, true)).Run("Themis");
  Result<CampaignResult> second = Campaign(EnvCampaignConfig(77, true)).Run("Themis");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->Digest(), second->Digest());
  EXPECT_EQ(first->total_ops, second->total_ops);
  // The fault dimension changes the run: same seed without env faults takes a
  // different trajectory.
  Result<CampaignResult> fault_free =
      Campaign(EnvCampaignConfig(77, false)).Run("Themis");
  ASSERT_TRUE(fault_free.ok()) << fault_free.status().ToString();
  EXPECT_NE(first->Digest(), fault_free->Digest());
}

TEST(EnvFaultCampaign, EveryEnvRegistryBugIsFaultGated) {
  std::vector<FaultSpec> specs = EnvFaultBugRegistry();
  ASSERT_GE(specs.size(), 4u);
  for (const FaultSpec& spec : specs) {
    EXPECT_TRUE(spec.trigger.needs_env_faults) << spec.id;
    EXPECT_EQ(spec.id.rfind("Bug#ENV-", 0), 0u) << spec.id;
    // Each env bug demands a concrete fault schedule, not just "any env op".
    bool names_env_kind = false;
    for (OpKind kind : spec.trigger.required_kinds) {
      names_env_kind = names_env_kind || IsEnvFaultOp(kind);
    }
    EXPECT_TRUE(names_env_kind) << spec.id;
  }
}

TEST(EnvFaultCampaign, EnvGatedBugsTriggerOnlyUnderAFaultSchedule) {
  // Fault-free config: the env registry is not even loaded, so no env-gated
  // fault can appear in the trigger bookkeeping — this is the "provably
  // cannot trigger" half of the reachability experiment.
  Result<CampaignResult> fault_free =
      Campaign(EnvCampaignConfig(1234, false)).Run("Themis");
  ASSERT_TRUE(fault_free.ok()) << fault_free.status().ToString();
  EXPECT_FALSE(HasEnvGatedEntry(fault_free->trigger_stats, /*min_triggers=*/0));
  for (const auto& [id, when] : fault_free->distinct_failures) {
    EXPECT_NE(id.rfind("Bug#ENV-", 0), 0u) << id;
  }
  // Faulted config: the schedule reaches the env-gated bug AND the detector
  // confirms it as a distinct failure — full reproduction, not just
  // trigger-predicate satisfaction.
  Result<CampaignResult> faulted =
      Campaign(EnvCampaignConfig(1234, true)).Run("Themis");
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_TRUE(HasEnvGatedEntry(faulted->trigger_stats, /*min_triggers=*/1));
  EXPECT_TRUE(faulted->Found("Bug#ENV-G1"));
}

}  // namespace
}  // namespace themis
