// Snapshot round-trip property tests (DESIGN.md §11): for randomized
// component states and every strategy's campaign states, save -> restore ->
// save must reproduce the original bytes, and a restored component must
// continue producing exactly the same stream of behavior as the original.
// The campaign-level variant checks the headline guarantee end to end: a
// campaign halted at a checkpoint and resumed yields the same digest as one
// that never stopped.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/snapshot_io.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/dfs/flavors/factory.h"
#include "src/dfs/flavors/geo_like.h"
#include "src/core/seed_pool.h"
#include "src/core/strategy_registry.h"
#include "src/coverage/coverage.h"
#include "src/dfs/operation.h"
#include "src/faults/env_fault.h"
#include "src/faults/fault_registry.h"
#include "src/faults/injector.h"
#include "src/harness/campaign.h"
#include "src/harness/snapshot.h"
#include "src/monitor/states_monitor.h"
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
    int warmup = static_cast<int>(meta.NextRange(0, 200));
    for (int i = 0; i < warmup; ++i) original.NextU64();

    SnapshotWriter writer;
    original.SaveState(writer);
    Rng restored(0);
    SnapshotReader reader(writer.buffer());
    ASSERT_TRUE(restored.RestoreState(reader).ok());

    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(original.NextU64(), restored.NextU64()) << "trial " << trial;
    }
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
    const uint64_t seed = meta.NextU64();
    CoverageRecorder original(4096, seed);
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
    CoverageRecorder restored(4096, seed);
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

// A campaign builds its recorder from the flavor's branch space and the
// campaign seed, and the record holds only the two bitmaps: a recorder built
// the same way recounts the hits from them, saves the same bytes, and goes on
// to hash states onto the same branches.
TEST(SnapshotRoundTripTest, CoverageRestoredUnderTheCampaignSeedIsByteStable) {
  constexpr uint64_t kCampaignSeed = 1234;
  CoverageRecorder original(FlavorBranchSpace(Flavor::kGluster), kCampaignSeed);
  std::unique_ptr<DfsCluster> cluster = MakeCluster(Flavor::kGluster, kCampaignSeed);
  cluster->set_coverage(&original);
  Rng rng(kCampaignSeed);
  InputModel model;
  model.SyncFromDfs(*cluster);
  OpSeqGenerator generator(model);
  for (int i = 0; i < 300; ++i) {
    Operation op = generator.GenerateOp(rng);
    model.Observe(op, cluster->Execute(op));
  }
  ASSERT_GT(original.StaticHits(), 0u);
  ASSERT_GT(original.VirtualHits(), 0u);
  SnapshotWriter first;
  original.SaveState(first);
  CoverageRecorder restored(FlavorBranchSpace(Flavor::kGluster), kCampaignSeed);
  SnapshotReader reader(first.buffer());
  ASSERT_TRUE(restored.RestoreState(reader).ok());
  EXPECT_EQ(restored.StaticHits(), original.StaticHits());
  EXPECT_EQ(restored.VirtualHits(), original.VirtualHits());
  SnapshotWriter second;
  restored.SaveState(second);
  ASSERT_EQ(first.buffer(), second.buffer());

  for (int i = 0; i < 200; ++i) {
    CovModule module = static_cast<CovModule>(rng.NextBelow(10));
    uint64_t feature = rng.NextU64();
    int multiplicity = static_cast<int>(rng.NextRange(1, 16));
    ASSERT_EQ(original.HitState(module, feature, multiplicity),
              restored.HitState(module, feature, multiplicity))
        << "hit " << i;
  }
  EXPECT_EQ(restored.TotalHits(), original.TotalHits());
}

// An injector with every part of its schedule armed (four message-fault
// rates, a degraded disk, pending restarts) and a used RNG restores to the
// same bytes, and both go on to rule the same verdicts.
TEST(SnapshotRoundTripTest, ArmedEnvFaultInjectorSaveRestoreSaveIsByteStable) {
  std::unique_ptr<DfsCluster> cluster = MakeCluster(Flavor::kHdfs, 5);
  EnvFaultInjector original(/*seed=*/5);
  cluster->set_env_faults(&original);
  std::vector<NodeId> storage = cluster->ListStorageNodes();
  ASSERT_GE(storage.size(), 3u);
  auto env_op = [&](OpKind kind, NodeId node, uint64_t size) {
    Operation op;
    op.kind = kind;
    op.node = node;
    op.size = size;
    ASSERT_TRUE(cluster->Execute(op).status.ok()) << op.ToString();
  };
  env_op(OpKind::kEnvMsgLoss, kInvalidNode, 150);
  env_op(OpKind::kEnvMsgReorder, kInvalidNode, 80);
  env_op(OpKind::kEnvMsgDuplicate, kInvalidNode, 60);
  env_op(OpKind::kEnvMsgCorrupt, kInvalidNode, 42);
  env_op(OpKind::kEnvSlowDisk, storage[0], 250);
  env_op(OpKind::kEnvCrashNode, storage[1], 900);
  env_op(OpKind::kEnvCrashNode, storage[2], 300);
  env_op(OpKind::kEnvCrashNode, cluster->ListMetaNodes().front(), 600);
  ASSERT_EQ(original.pending_restarts(), 3u);
  ASSERT_EQ(original.active_slow_disks(), 1u);

  SnapshotWriter first;
  original.SaveState(first);
  EnvFaultInjector restored(/*seed=*/999);  // the record carries the RNG
  SnapshotReader reader(first.buffer());
  Status status = restored.RestoreState(reader);
  ASSERT_TRUE(status.ok()) << status.ToString();
  SnapshotWriter second;
  restored.SaveState(second);
  ASSERT_EQ(first.buffer(), second.buffer());

  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(original.OnMigrationMessage(*cluster, ChunkMove{}),
              restored.OnMigrationMessage(*cluster, ChunkMove{}))
        << "message " << i;
    ASSERT_EQ(original.DropHeartbeat(*cluster, storage[0]),
              restored.DropHeartbeat(*cluster, storage[0]))
        << "heartbeat " << i;
  }
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

std::string SavedState(const Strategy& strategy) {
  SnapshotWriter writer;
  strategy.SaveState(writer);
  return writer.buffer();
}

// Every registered strategy, stepped through a real campaign: after each
// test case, a fresh instance restored from the strategy's saved bytes
// saves the same bytes again. Checking every boundary reaches the states a
// synthetic prefix can miss: Alternate's stale counter part-way to its
// patience, Fix_conf past its prelude, Themis inside a climb episode.
TEST(SnapshotRoundTripTest, EveryStrategySaveRestoreSaveIsByteStable) {
  for (const std::string& name : StrategyRegistry::Instance().Names()) {
    SCOPED_TRACE(name);
    CampaignConfig config;
    config.seed = 1234;
    config.budget = Hours(2);
    Result<std::unique_ptr<CampaignSession>> session = CampaignSession::Open(config, name);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    InputModel fresh_model;
    Rng fresh_rng(0);
    Result<std::unique_ptr<Strategy>> fresh =
        StrategyRegistry::Instance().Make(name, fresh_model, fresh_rng);
    ASSERT_TRUE(fresh.ok());
    const std::string defaults = SavedState(**fresh);
    std::string saved = defaults;
    for (int testcase = 1; !(*session)->Done(); ++testcase) {
      (*session)->Step();
      saved = SavedState((*session)->strategy());
      InputModel model;
      Rng rng(0);
      Result<std::unique_ptr<Strategy>> restored =
          StrategyRegistry::Instance().Make(name, model, rng);
      ASSERT_TRUE(restored.ok());
      SnapshotReader reader(saved);
      ASSERT_TRUE((*restored)->RestoreState(reader).ok()) << "test case " << testcase;
      ASSERT_TRUE(reader.AtEnd()) << "test case " << testcase;
      ASSERT_EQ(SavedState(**restored), saved) << "test case " << testcase;
    }
    if (!defaults.empty()) {
      EXPECT_NE(saved, defaults) << "the campaign never moved the strategy off its defaults";
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

// Save -> restore -> save is byte-stable for every flavor, and the restored
// cluster keeps reporting exactly the original's load through further
// mutations.
TEST(SnapshotRoundTripTest, ClusterSaveRestoreSaveIsByteStable) {
  for (Flavor flavor : {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph, Flavor::kLeo,
                        Flavor::kGeo}) {
    std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, 2027);
    Rng rng(2027);
    InputModel model;
    model.SyncFromDfs(*dfs);
    OpSeqGenerator generator(model);
    for (int i = 0; i < 300; ++i) {
      Operation op = generator.GenerateOp(rng);
      model.Observe(op, dfs->Execute(op));
    }

    SnapshotWriter first;
    dfs->SaveState(first);
    std::unique_ptr<DfsCluster> restored = MakeCluster(flavor, 2027);
    SnapshotReader reader(first.buffer());
    ASSERT_TRUE(restored->RestoreState(reader).ok()) << FlavorName(flavor);
    SnapshotWriter second;
    restored->SaveState(second);
    EXPECT_EQ(first.buffer(), second.buffer()) << FlavorName(flavor);

    // Continue the same mutations on both sides.
    for (int i = 0; i < 50; ++i) {
      Operation op = generator.GenerateOp(rng);
      OpResult result = dfs->Execute(op);
      (void)restored->Execute(op);
      model.Observe(op, result);
    }
    for (NodeId node : dfs->ServingStorageNodeIds()) {
      const NodeLoadCounters skew{.requests = 7,
                                  .read_ios = 3,
                                  .write_ios = 1,
                                  .cpu_seconds = 0.25 + 0.125 * static_cast<double>(node)};
      dfs->AddLoad(node, skew);
      restored->AddLoad(node, skew);
    }
    EXPECT_TRUE(dfs->SampleLoad() == restored->SampleLoad()) << FlavorName(flavor);
    EXPECT_EQ(dfs->StorageImbalance(), restored->StorageImbalance())
        << FlavorName(flavor);
  }
}

// A decommission can empty GeoFS's last scheduling group. Admission still
// counts the empty group (fewest members wins), and placement hashes
// modulo the group count, so a restore must bring the empty group back:
// otherwise the restored cluster admits and places differently.
TEST(SnapshotRoundTripTest, GeoRestoreKeepsAnEmptiedLastGroup) {
  ClusterConfig config = GeoLikeCluster::DefaultConfig();
  config.initial_storage_nodes = 2 * GeoLikeCluster::kGroupSize;  // two full groups
  config.min_storage_nodes = 4;
  GeoLikeCluster original(config);
  ASSERT_EQ(original.engine().group_count(), 2u);

  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(original.Execute(add).status.ok());
  NodeId added = original.ListStorageNodes().back();
  ASSERT_EQ(original.engine().GroupOf(added), 2u);
  Operation remove;
  remove.kind = OpKind::kRemoveStorageNode;
  for (NodeId node : {added, original.engine().GroupMembers(0).front()}) {
    remove.node = node;
    ASSERT_TRUE(original.Execute(remove).status.ok()) << node;
  }
  ASSERT_EQ(original.engine().group_count(), 3u);
  ASSERT_TRUE(original.engine().GroupMembers(2).empty());

  SnapshotWriter saved;
  original.SaveState(saved);
  GeoLikeCluster restored(config);
  SnapshotReader reader(saved.buffer());
  ASSERT_TRUE(restored.RestoreState(reader).ok());
  EXPECT_EQ(restored.engine().group_count(), 3u);

  // The next node refills the empty group on both sides...
  ASSERT_TRUE(original.Execute(add).status.ok());
  ASSERT_TRUE(restored.Execute(add).status.ok());
  NodeId next = original.ListStorageNodes().back();
  EXPECT_EQ(original.engine().GroupOf(next), 2u);
  EXPECT_EQ(restored.engine().GroupOf(next), 2u);
  // ...and placement stays in lockstep.
  for (int i = 0; i < 20; ++i) {
    Operation create;
    create.kind = OpKind::kCreate;
    create.path = "/f" + std::to_string(i);
    create.size = 5 * kGiB;
    ASSERT_EQ(original.Execute(create).status.ok(), restored.Execute(create).status.ok()) << i;
  }
  SnapshotWriter original_bytes;
  SnapshotWriter restored_bytes;
  original.SaveState(original_bytes);
  restored.SaveState(restored_bytes);
  EXPECT_TRUE(original_bytes.buffer() == restored_bytes.buffer())
      << "saved states diverged after the restore";
}

// The monitor's sampling window lives in the variance model's
// previous-window counters: a monitor saved mid-campaign and restored must
// return the bit-identical next sample.
TEST(SnapshotRoundTripTest, MonitorContinuesTheExactSampleStream) {
  for (Flavor flavor : {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph, Flavor::kLeo,
                        Flavor::kGeo}) {
    std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, 2028);
    FaultInjector injector(NewBugsFor(flavor), 2028);
    dfs->set_fault_hooks(&injector);
    Rng rng(2028);
    InputModel model;
    model.SyncFromDfs(*dfs);
    OpSeqGenerator generator(model);
    StatesMonitor monitor{LoadVarianceWeights{}};
    for (int i = 0; i < 300; ++i) {
      Operation op = generator.GenerateOp(rng);
      model.Observe(op, dfs->Execute(op));
      if (i % 7 == 6) {
        (void)monitor.Sample(*dfs);
      }
    }

    SnapshotWriter first;
    monitor.SaveState(first);
    StatesMonitor restored{LoadVarianceWeights{}};
    SnapshotReader reader(first.buffer());
    ASSERT_TRUE(restored.RestoreState(reader).ok()) << FlavorName(flavor);
    ASSERT_TRUE(reader.AtEnd()) << FlavorName(flavor);
    SnapshotWriter second;
    restored.SaveState(second);
    EXPECT_EQ(first.buffer(), second.buffer()) << FlavorName(flavor);

    // Mid-window: the next sample differences against the restored window.
    for (int i = 0; i < 40; ++i) {
      Operation op = generator.GenerateOp(rng);
      model.Observe(op, dfs->Execute(op));
    }
    LoadVarianceSnapshot original = monitor.Sample(*dfs);
    LoadVarianceSnapshot resumed = restored.Sample(*dfs);
    EXPECT_TRUE(original == resumed) << FlavorName(flavor);
    // A monitor without the window would count lifetime counters instead.
    StatesMonitor fresh{LoadVarianceWeights{}};
    EXPECT_FALSE(fresh.Sample(*dfs) == original) << FlavorName(flavor);
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

// Same headline property for GeoFS: its checkpoint carries the geotag
// tree, the scheduling groups and the group count, all history-dependent,
// so a resumed run only matches the uninterrupted digest if they
// round-trip exactly.
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
