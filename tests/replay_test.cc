// Reproduction-log format round-trips and replay behavior.

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/core/replay.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/injector.h"

namespace themis {
namespace {

TEST(Replay, FormatAndParseEveryOperator) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 61);
  InputModel model;
  model.SyncFromDfs(*dfs);
  OpSeqGenerator generator(model);
  Rng rng(61);
  for (int i = 0; i < kOpKindCount; ++i) {
    Operation original = generator.GenerateOpOfKind(OpKindFromIndex(i), rng);
    std::string line = FormatOperation(original);
    Result<Operation> parsed = ParseOperation(line);
    ASSERT_TRUE(parsed.ok()) << line << " -> " << parsed.status().ToString();
    EXPECT_EQ(parsed->kind, original.kind) << line;
    EXPECT_EQ(parsed->path, original.path) << line;
    EXPECT_EQ(parsed->path2, original.path2) << line;
    EXPECT_EQ(parsed->size, original.size) << line;
    if (original.kind == OpKind::kRemoveMetaNode ||
        original.kind == OpKind::kRemoveStorageNode ||
        original.kind == OpKind::kAddVolume) {
      EXPECT_EQ(parsed->node, original.node) << line;
    }
  }
}

TEST(Replay, LogRoundTrip) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 62);
  InputModel model;
  model.SyncFromDfs(*dfs);
  OpSeqGenerator generator(model);
  Rng rng(62);
  OpSeq seq = generator.Generate(rng, 8);
  std::string log = FormatReproductionLog(seq);
  Result<OpSeq> parsed = ParseReproductionLog(log);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), seq.size());
  EXPECT_EQ(FormatReproductionLog(*parsed), log);
}

TEST(Replay, ParserSkipsCommentsAndBlankLines) {
  Result<OpSeq> parsed = ParseReproductionLog(
      "# reproduction log\n\ncreate /f size=1024\n\n# trailing comment\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(Replay, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseOperation("fly /to/the/moon").ok());
  EXPECT_FALSE(ParseOperation("create /f").ok());             // missing size
  EXPECT_FALSE(ParseOperation("create /f size=abc").ok());    // bad number
  EXPECT_FALSE(ParseOperation("remove_MN brick=1").ok());     // wrong key
  EXPECT_FALSE(ParseOperation("rename /only-one").ok());
  EXPECT_FALSE(ParseOperation("add_storage extra").ok());
  EXPECT_FALSE(ParseReproductionLog("# only comments\n").ok());
}

TEST(Replay, DeterministicReplayReproducesState) {
  Result<OpSeq> seq = ParseReproductionLog(
      "mkdir /d\n"
      "create /d/a size=2147483648\n"
      "create /d/b size=1073741824\n"
      "rename /d/b /d/c\n"
      "delete /d/a\n");
  ASSERT_TRUE(seq.ok());
  std::unique_ptr<DfsCluster> one = MakeCluster(Flavor::kLeo, 63);
  std::unique_ptr<DfsCluster> two = MakeCluster(Flavor::kLeo, 63);
  ReplayOutcome a = ReplayLog(*one, *seq);
  ReplayOutcome b = ReplayLog(*two, *seq);
  EXPECT_EQ(a.ops_executed, 5);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_DOUBLE_EQ(a.residual_imbalance, b.residual_imbalance);
  EXPECT_EQ(one->TotalUsedBytes(), two->TotalUsedBytes());
  EXPECT_TRUE(one->tree().IsFile("/d/c"));
}

TEST(Replay, HealthyReplayLeavesBalancedSystem) {
  Result<OpSeq> seq = ParseReproductionLog(
      "create /a size=10737418240\n"
      "create /b size=10737418240\n");
  ASSERT_TRUE(seq.ok());
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 64);
  ReplayOutcome outcome = ReplayLog(*dfs, *seq, /*repetitions=*/1);
  EXPECT_LT(outcome.residual_imbalance, 0.25);
  EXPECT_FALSE(outcome.any_node_crashed);
}

TEST(Replay, FaultyReplayReproducesPersistentImbalance) {
  // An instant plan-skipping fault: replaying a write-heavy log repeatedly
  // must leave a residual imbalance the rebalance cannot clear.
  FaultSpec spec;
  spec.id = "replayed-bug";
  spec.platform = Flavor::kGluster;
  spec.effect = EffectKind::kPlanSkipsVictim;
  spec.severity = 0.40;
  spec.trigger.min_window_ops = 1;
  spec.trigger.probability = 1.0;
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 65);
  FaultInjector injector({spec}, 65);
  dfs->set_fault_hooks(&injector);

  OpSeq seq;
  for (int i = 0; i < 8; ++i) {
    Operation op;
    op.kind = OpKind::kCreate;
    op.path = "/r" + std::to_string(i);
    op.size = 40 * kGiB;  // enough stored data for a 25pp+ spread
    seq.ops.push_back(op);
  }
  // Repetition grows the hotspot (Finding 6); creates of existing paths fail
  // but the injector keeps steering on every operation.
  ReplayOutcome outcome = ReplayLog(*dfs, seq, /*repetitions=*/60);
  EXPECT_GE(outcome.residual_imbalance, 0.25)
      << "the injected fault must survive the post-replay rebalance";
}

}  // namespace
}  // namespace themis
