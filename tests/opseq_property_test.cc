// Property-based invariants over the OpSeq pipeline: generated and mutated
// sequences always stay inside the Fig. 7 grammar (every operator carries its
// required operands), mutation respects the [1, kMaxOpSeqLen] length bounds, and
// replay is a pure function of (cluster seed, log).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/core/mutator.h"
#include "src/core/replay.h"
#include "src/dfs/flavors/factory.h"

namespace themis {
namespace {

constexpr int kTrials = 50;

// Fig. 7 well-formedness: "the number and contents of operands opd are
// determined by the operator opt". The model is synced from a live cluster,
// so node/brick references must resolve to real ids.
testing::AssertionResult GrammarValid(const Operation& op) {
  auto path_ok = [](const std::string& path) {
    return !path.empty() && path[0] == '/';
  };
  switch (op.kind) {
    case OpKind::kCreate:
    case OpKind::kDelete:
    case OpKind::kAppend:
    case OpKind::kOverwrite:
    case OpKind::kOpen:
    case OpKind::kTruncateOverwrite:
    case OpKind::kMkdir:
    case OpKind::kRmdir:
      if (!path_ok(op.path)) {
        return testing::AssertionFailure()
               << OpKindName(op.kind) << " without a fileName operand: "
               << op.ToString();
      }
      return testing::AssertionSuccess();
    case OpKind::kRename:
      if (!path_ok(op.path) || !path_ok(op.path2)) {
        return testing::AssertionFailure()
               << "rename needs two fileName operands: " << op.ToString();
      }
      return testing::AssertionSuccess();
    case OpKind::kAddMetaNode:
    case OpKind::kAddStorageNode:
      return testing::AssertionSuccess();  // the system assigns the id
    case OpKind::kRemoveMetaNode:
    case OpKind::kRemoveStorageNode:
      if (op.node == kInvalidNode) {
        return testing::AssertionFailure()
               << OpKindName(op.kind) << " without a nodeId operand";
      }
      return testing::AssertionSuccess();
    case OpKind::kAddVolume:
      return testing::AssertionSuccess();  // target node is optional
    case OpKind::kRemoveVolume:
    case OpKind::kExpandVolume:
    case OpKind::kReduceVolume:
      if (op.brick == kInvalidBrick) {
        return testing::AssertionFailure()
               << OpKindName(op.kind) << " without a brick operand";
      }
      return testing::AssertionSuccess();
    case OpKind::kEnvMsgLoss:
    case OpKind::kEnvMsgReorder:
    case OpKind::kEnvMsgDuplicate:
    case OpKind::kEnvMsgCorrupt:
      if (op.size < kEnvMinRatePermille || op.size > kEnvMaxRatePermille) {
        return testing::AssertionFailure()
               << OpKindName(op.kind) << " rate outside ["
               << kEnvMinRatePermille << ", " << kEnvMaxRatePermille
               << "] permille: " << op.ToString();
      }
      return testing::AssertionSuccess();
    case OpKind::kEnvSlowDisk:
      if (op.node == kInvalidNode) {
        return testing::AssertionFailure() << "slow_disk without a nodeId operand";
      }
      if (op.size < kEnvMinSlowFactorPercent || op.size > kEnvMaxSlowFactorPercent) {
        return testing::AssertionFailure()
               << "slow_disk factor outside [" << kEnvMinSlowFactorPercent
               << ", " << kEnvMaxSlowFactorPercent << "] percent: "
               << op.ToString();
      }
      return testing::AssertionSuccess();
    case OpKind::kEnvCrashNode:
      if (op.node == kInvalidNode) {
        return testing::AssertionFailure() << "crash_node without a nodeId operand";
      }
      if (op.size < kEnvMinCrashDelaySeconds || op.size > kEnvMaxCrashDelaySeconds) {
        return testing::AssertionFailure()
               << "crash_node restart delay outside [" << kEnvMinCrashDelaySeconds
               << ", " << kEnvMaxCrashDelaySeconds << "] seconds: "
               << op.ToString();
      }
      return testing::AssertionSuccess();
    case OpKind::kEnvClearFaults:
      return testing::AssertionSuccess();  // no operands
  }
  return testing::AssertionFailure() << "unknown operator";
}

testing::AssertionResult GrammarValid(const OpSeq& seq) {
  if (seq.ops.empty()) {
    return testing::AssertionFailure() << "testcase needs operation+ (empty)";
  }
  for (const Operation& op : seq.ops) {
    testing::AssertionResult result = GrammarValid(op);
    if (!result) {
      return result;
    }
  }
  return testing::AssertionSuccess();
}

struct Fixture {
  std::unique_ptr<DfsCluster> cluster;
  InputModel model;
  Rng rng{0xfeedULL};

  Fixture() : cluster(MakeCluster(Flavor::kGluster, /*seed=*/7)) {
    model.SyncFromDfs(*cluster);
  }
};

TEST(OpSeqProperty, GeneratedSequencesStayInGrammar) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  for (int trial = 0; trial < kTrials; ++trial) {
    OpSeq seq = generator.Generate(fx.rng);
    EXPECT_TRUE(GrammarValid(seq));
    EXPECT_GE(seq.size(), 1u);
    EXPECT_LE(seq.size(), static_cast<size_t>(kMaxOpSeqLen));
  }
}

TEST(OpSeqProperty, MutationPreservesGrammarAndLengthBounds) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  OpSeqMutator mutator(fx.model, generator);
  OpSeq seq = generator.Generate(fx.rng);
  for (int trial = 0; trial < kTrials * 4; ++trial) {
    seq = mutator.Mutate(seq, fx.rng);
    ASSERT_TRUE(GrammarValid(seq)) << "after mutation round " << trial;
    ASSERT_GE(seq.size(), 1u);
    ASSERT_LE(seq.size(), static_cast<size_t>(kMaxOpSeqLen));
  }
}

TEST(OpSeqProperty, LightMutationChangesLengthByAtMostOne) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  OpSeqMutator mutator(fx.model, generator);
  for (int trial = 0; trial < kTrials; ++trial) {
    OpSeq seed = generator.Generate(fx.rng);
    OpSeq out = mutator.MutateLight(seed, fx.rng);
    EXPECT_TRUE(GrammarValid(out));
    EXPECT_LE(out.size(), seed.size() + 1);
    EXPECT_GE(out.size() + 1, seed.size());
    EXPECT_GE(out.size(), 1u);
  }
}

TEST(OpSeqProperty, RepairRebindsDeadNodeAndBrickReferences) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  OpSeqMutator mutator(fx.model, generator);
  OpSeq seq;
  Operation dead_node;
  dead_node.kind = OpKind::kRemoveStorageNode;
  dead_node.node = 999999;  // not in the model
  seq.ops.push_back(dead_node);
  Operation dead_brick;
  dead_brick.kind = OpKind::kExpandVolume;
  dead_brick.brick = 999999;
  dead_brick.size = 1;
  seq.ops.push_back(dead_brick);
  mutator.Repair(seq, fx.rng);
  EXPECT_TRUE(fx.model.HasStorageNode(seq.ops[0].node));
  EXPECT_TRUE(fx.model.HasBrick(seq.ops[1].brick));
}

TEST(OpSeqProperty, ReproductionLogRoundTrips) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  for (int trial = 0; trial < kTrials; ++trial) {
    OpSeq seq = generator.Generate(fx.rng);
    Result<OpSeq> parsed = ParseReproductionLog(FormatReproductionLog(seq));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(FormatReproductionLog(*parsed), FormatReproductionLog(seq));
  }
}

TEST(OpSeqProperty, ReplayReproducesClusterLoadVector) {
  Fixture fx;
  OpSeqGenerator generator(fx.model);
  for (int trial = 0; trial < 10; ++trial) {
    OpSeq seq = generator.Generate(fx.rng);
    std::unique_ptr<DfsCluster> first = MakeCluster(Flavor::kGluster, /*seed=*/42);
    std::unique_ptr<DfsCluster> second = MakeCluster(Flavor::kGluster, /*seed=*/42);
    ReplayOutcome outcome_a = ReplayLog(*first, seq, /*repetitions=*/2);
    ReplayOutcome outcome_b = ReplayLog(*second, seq, /*repetitions=*/2);
    EXPECT_EQ(outcome_a.ops_executed, outcome_b.ops_executed);
    EXPECT_EQ(outcome_a.ops_ok, outcome_b.ops_ok);
    EXPECT_DOUBLE_EQ(outcome_a.residual_imbalance, outcome_b.residual_imbalance);
    EXPECT_EQ(outcome_a.any_node_crashed, outcome_b.any_node_crashed);
    std::vector<LoadSample> load_a = first->SampleLoad();
    std::vector<LoadSample> load_b = second->SampleLoad();
    ASSERT_EQ(load_a.size(), load_b.size());
    for (size_t i = 0; i < load_a.size(); ++i) {
      EXPECT_EQ(load_a[i].node, load_b[i].node);
      EXPECT_EQ(load_a[i].used_bytes, load_b[i].used_bytes);
      EXPECT_EQ(load_a[i].capacity_bytes, load_b[i].capacity_bytes);
      EXPECT_EQ(load_a[i].requests, load_b[i].requests);
    }
  }
}

}  // namespace
}  // namespace themis
