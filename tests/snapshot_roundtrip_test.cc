// Snapshot round-trip property tests (DESIGN.md §11): for randomized
// component states, save -> restore -> save must reproduce the original
// bytes, and a restored component must continue producing exactly the same
// stream of behavior as the original. The campaign-level variant checks the
// headline guarantee end to end: a campaign halted at a checkpoint and
// resumed yields the same digest as one that never stopped.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot_io.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/dfs/flavors/factory.h"
#include "src/core/seed_pool.h"
#include "src/core/strategy_registry.h"
#include "src/coverage/coverage.h"
#include "src/dfs/operation.h"
#include "src/harness/campaign.h"
#include "src/harness/snapshot.h"
#include "tests/checkpoint_helpers.h"

namespace themis {
namespace {

Operation RandomOperation(Rng& rng) {
  Operation op;
  op.kind = OpKindFromIndex(static_cast<int>(rng.NextRange(0, kOpKindCount - 1)));
  op.path = "/f" + std::to_string(rng.NextBelow(1000));
  op.path2 = rng.Chance(0.3) ? "/g" + std::to_string(rng.NextBelow(1000)) : "";
  op.node = static_cast<NodeId>(rng.NextBelow(16));
  op.brick = static_cast<BrickId>(rng.NextBelow(16));
  op.size = rng.NextU64() >> static_cast<int>(rng.NextBelow(40));
  return op;
}

OpSeq RandomOpSeq(Rng& rng) {
  OpSeq seq;
  int len = static_cast<int>(rng.NextRange(1, 8));
  for (int i = 0; i < len; ++i) {
    seq.ops.push_back(RandomOperation(rng));
  }
  return seq;
}

TEST(SnapshotRoundTripTest, RngContinuesTheExactStream) {
  Rng meta(2026);
  for (int trial = 0; trial < 20; ++trial) {
    Rng original(meta.NextU64());
    // Random warm-up, deliberately sometimes leaving a Box-Muller spare.
    int warmup = static_cast<int>(meta.NextRange(0, 200));
    for (int i = 0; i < warmup; ++i) original.NextU64();
    if (meta.Chance(0.5)) original.NextGaussian();

    SnapshotWriter writer;
    original.SaveState(writer);
    Rng restored(0);
    SnapshotReader reader(writer.buffer());
    ASSERT_TRUE(restored.RestoreState(reader).ok());

    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(original.NextU64(), restored.NextU64()) << "trial " << trial;
    }
    ASSERT_DOUBLE_EQ(original.NextGaussian(), restored.NextGaussian());
  }
}

TEST(SnapshotRoundTripTest, SeedPoolSaveRestoreSaveIsByteStable) {
  Rng meta(7);
  for (int trial = 0; trial < 10; ++trial) {
    SeedPool pool(64);
    int seeds = static_cast<int>(meta.NextRange(0, 40));
    for (int i = 0; i < seeds; ++i) {
      pool.Add(RandomOpSeq(meta), meta.NextDouble() * 10.0);
    }
    Rng select_rng(meta.NextU64());
    for (int i = 0; i < 5 && !pool.empty(); ++i) pool.Select(select_rng);

    SnapshotWriter first;
    pool.SaveState(first);
    SeedPool restored(64);
    SnapshotReader reader(first.buffer());
    ASSERT_TRUE(restored.RestoreState(reader).ok());
    SnapshotWriter second;
    restored.SaveState(second);
    ASSERT_EQ(first.buffer(), second.buffer()) << "trial " << trial;

    // Continued selection draws identically from both pools.
    if (!pool.empty()) {
      Rng a(42), b(42);
      for (int i = 0; i < 10; ++i) {
        ASSERT_EQ(pool.Select(a).ToString(), restored.Select(b).ToString());
      }
    }
  }
}

TEST(SnapshotRoundTripTest, CoverageBitmapsSurviveExactly) {
  Rng meta(11);
  for (int trial = 0; trial < 10; ++trial) {
    CoverageRecorder original(4096, meta.NextU64());
    int hits = static_cast<int>(meta.NextRange(0, 500));
    for (int i = 0; i < hits; ++i) {
      CovModule module = static_cast<CovModule>(meta.NextBelow(10));
      if (meta.Chance(0.3)) {
        original.HitStatic(module, static_cast<uint32_t>(meta.NextBelow(64)));
      } else {
        original.HitState(module, meta.NextU64(),
                          static_cast<int>(meta.NextRange(1, 16)));
      }
    }
    SnapshotWriter first;
    original.SaveState(first);
    CoverageRecorder restored(4096, 0);
    SnapshotReader reader(first.buffer());
    ASSERT_TRUE(restored.RestoreState(reader).ok());
    EXPECT_EQ(original.TotalHits(), restored.TotalHits());
    EXPECT_EQ(original.StaticHits(), restored.StaticHits());
    SnapshotWriter second;
    restored.SaveState(second);
    ASSERT_EQ(first.buffer(), second.buffer()) << "trial " << trial;
  }
}

TEST(SnapshotRoundTripTest, CoverageRejectsWrongBranchSpace) {
  CoverageRecorder original(4096, 9);
  original.HitState(CovModule::kBalancer, 123, 4);
  SnapshotWriter writer;
  original.SaveState(writer);
  CoverageRecorder smaller(1024, 9);
  SnapshotReader reader(writer.buffer());
  Status status = smaller.RestoreState(reader);
  ASSERT_FALSE(status.ok());
}

// The fuzzer (schedule state + seed pool), its input model and its RNG,
// restored together, continue generating exactly the test cases the
// original would have generated.
TEST(SnapshotRoundTripTest, FuzzerContinuesTheExactSchedule) {
  Rng meta(31337);
  for (int trial = 0; trial < 5; ++trial) {
    uint64_t seed = meta.NextU64();
    Rng rng(seed);
    InputModel model;
    Result<std::unique_ptr<Strategy>> fuzzer =
        StrategyRegistry::Instance().Make("Themis", model, rng);
    ASSERT_TRUE(fuzzer.ok());

    // Drive the fuzzer through a randomized prefix of synthetic outcomes.
    int prefix = static_cast<int>(meta.NextRange(5, 60));
    for (int i = 0; i < prefix; ++i) {
      OpSeq seq = (*fuzzer)->Next();
      ExecOutcome outcome;
      outcome.variance_score = meta.NextDouble();
      outcome.variance_gain = meta.NextDouble() - 0.3;
      outcome.new_coverage = static_cast<size_t>(meta.NextRange(0, 5));
      outcome.ops_executed = static_cast<int>(seq.size());
      outcome.ops_ok = outcome.ops_executed;
      (*fuzzer)->OnOutcome(seq, outcome);
    }

    SnapshotWriter writer;
    rng.SaveState(writer);
    model.SaveState(writer);
    (*fuzzer)->SaveState(writer);

    Rng rng2(0);
    InputModel model2;
    Result<std::unique_ptr<Strategy>> fuzzer2 =
        StrategyRegistry::Instance().Make("Themis", model2, rng2);
    ASSERT_TRUE(fuzzer2.ok());
    SnapshotReader reader(writer.buffer());
    ASSERT_TRUE(rng2.RestoreState(reader).ok());
    ASSERT_TRUE(model2.RestoreState(reader).ok());
    ASSERT_TRUE((*fuzzer2)->RestoreState(reader).ok());
    ASSERT_TRUE(reader.AtEnd());

    for (int i = 0; i < 30; ++i) {
      OpSeq a = (*fuzzer)->Next();
      OpSeq b = (*fuzzer2)->Next();
      ASSERT_EQ(a.ToString(), b.ToString()) << "trial " << trial << " step " << i;
      ExecOutcome outcome;
      outcome.variance_gain = 0.1;
      (*fuzzer)->OnOutcome(a, outcome);
      (*fuzzer2)->OnOutcome(b, outcome);
    }
  }
}

TEST(SnapshotRoundTripTest, SnapshotFilePreservesKindAndPayload) {
  const std::string dir = FreshDir("file");
  Rng meta(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::string payload;
    size_t len = static_cast<size_t>(meta.NextRange(0, 4096));
    payload.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(meta.NextBelow(256)));
    }
    SnapshotKind kind =
        meta.Chance(0.5) ? SnapshotKind::kMidCampaign : SnapshotKind::kFinal;
    const std::string path = dir + "/trial-" + std::to_string(trial) + ".ckpt";
    ASSERT_TRUE(WriteSnapshotFile(path, kind, payload).ok());
    Result<LoadedSnapshot> loaded = ReadSnapshotFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->kind, kind);
    EXPECT_EQ(loaded->payload, payload);
  }
}

// Format v3: the cluster's streaming rate-window bases (DESIGN.md §13) are
// part of the snapshot. Save mid-window -> restore -> save must be byte
// stable, and the restored cluster's O(1) load aggregates must track the
// original exactly through further mid-window mutations.
TEST(SnapshotRoundTripTest, ClusterRateWindowsSurviveExactly) {
  for (Flavor flavor : {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph, Flavor::kLeo,
                        Flavor::kGeo}) {
    std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, 2027);
    Rng rng(2027);
    InputModel model;
    model.SyncFromDfs(*dfs);
    OpSeqGenerator generator(model);
    for (int i = 0; i < 200; ++i) {
      Operation op = generator.GenerateOp(rng);
      model.Observe(op, dfs->Execute(op));
    }
    dfs->AdvanceLoadWindow();  // leave stale windows behind...
    for (int i = 0; i < 100; ++i) {
      Operation op = generator.GenerateOp(rng);
      model.Observe(op, dfs->Execute(op));
    }  // ...and a half-open window on the nodes these ops touched

    SnapshotWriter first;
    dfs->SaveState(first);
    std::unique_ptr<DfsCluster> restored = MakeCluster(flavor, 2027);
    SnapshotReader reader(first.buffer());
    ASSERT_TRUE(restored->RestoreState(reader).ok()) << FlavorName(flavor);
    SnapshotWriter second;
    restored->SaveState(second);
    EXPECT_EQ(first.buffer(), second.buffer()) << FlavorName(flavor);

    LoadStatsSnapshot a, b;
    ASSERT_TRUE(dfs->SnapshotLoadStats(a));
    ASSERT_TRUE(restored->SnapshotLoadStats(b));
    EXPECT_TRUE(a == b) << FlavorName(flavor) << " diverged at restore";

    // Continue the same mid-window mutations on both sides: deltas keep
    // differencing against the restored bases, so aggregates must stay equal.
    for (NodeId node : dfs->ServingStorageNodeIds()) {
      dfs->InjectCpuLoad(node, 0.25 + 0.125 * static_cast<double>(node));
      restored->InjectCpuLoad(node, 0.25 + 0.125 * static_cast<double>(node));
      dfs->InjectNetLoad(node, 3, 1, 7);
      restored->InjectNetLoad(node, 3, 1, 7);
    }
    ASSERT_TRUE(dfs->SnapshotLoadStats(a));
    ASSERT_TRUE(restored->SnapshotLoadStats(b));
    EXPECT_TRUE(a == b) << FlavorName(flavor) << " diverged mid-window";
  }
}

// The headline property at the smallest useful scale: halt a campaign at
// its first checkpoint (~1k ops in), resume it, and require the digest of
// the continued run to equal an uninterrupted run's digest bit for bit.
TEST(SnapshotRoundTripTest, ContinuedRunMatchesUninterruptedDigest) {
  CampaignConfig checkpointed;
  checkpointed.flavor = Flavor::kGluster;
  checkpointed.seed = 4321;
  checkpointed.budget = Hours(2);
  checkpointed.checkpoint_dir = FreshDir("continued");
  checkpointed.checkpoint_every_ops = 1000;
  ASSERT_TRUE(CrashAfterCheckpoints(checkpointed, "Themis", 1).ok());
  ExpectResumeMatchesUninterrupted(checkpointed, "Themis");
}

// Same headline property for the v5 state: a GeoFS campaign's checkpoint
// carries the load-group assignment table and the geotag tree, both
// history-dependent, so a resumed run only matches the uninterrupted digest
// if they round-trip exactly.
TEST(SnapshotRoundTripTest, GeoContinuedRunMatchesUninterruptedDigest) {
  CampaignConfig checkpointed;
  checkpointed.flavor = Flavor::kGeo;
  checkpointed.seed = 8765;
  checkpointed.budget = Hours(2);
  checkpointed.checkpoint_dir = FreshDir("geo_continued");
  checkpointed.checkpoint_every_ops = 1000;
  ASSERT_TRUE(CrashAfterCheckpoints(checkpointed, "Themis", 1).ok());
  ExpectResumeMatchesUninterrupted(checkpointed, "Themis");
}

}  // namespace
}  // namespace themis
