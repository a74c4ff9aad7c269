// Corruption handling (DESIGN.md §11): every way a snapshot file can rot —
// truncation, bit flips, a wrong magic, an unsupported format version, a
// mismatched payload size — must be rejected with a descriptive kDataLoss
// Status, never a crash or a silently wrong restore. A resuming campaign
// skips corrupt candidates and falls back to the newest valid snapshot, and
// a snapshot taken under a different configuration is refused with a
// field-level identity error.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/snapshot_io.h"
#include "src/common/strings.h"
#include "src/coverage/model_coverage.h"
#include "src/dfs/flavors/factory.h"
#include "src/dfs/flavors/geo_like.h"
#include "src/faults/env_fault.h"
#include "src/faults/injector.h"
#include "src/harness/campaign.h"
#include "src/harness/snapshot.h"
#include "src/monitor/load_model.h"
#include "tests/checkpoint_helpers.h"

namespace themis {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string MakeValidSnapshot(const std::string& dir, const std::string& name) {
  const std::string path = dir + "/" + name;
  std::string payload = "campaign state bytes, definitely load-bearing";
  EXPECT_TRUE(WriteSnapshotFile(path, SnapshotKind::kMidCampaign, payload).ok());
  return path;
}

TEST(SnapshotCorruptionTest, TruncationIsRejectedDescriptively) {
  const std::string dir = FreshDir("truncate");
  const std::string path = MakeValidSnapshot(dir, "job-0-1.ckpt");
  std::string bytes = ReadFileBytes(path);
  // Truncate at every interesting boundary: inside the header, exactly at
  // the header end, and inside the payload.
  for (size_t keep : {size_t{0}, size_t{7}, size_t{20}, size_t{29},
                      bytes.size() - 1}) {
    WriteFileBytes(path, bytes.substr(0, keep));
    Result<LoadedSnapshot> loaded = ReadSnapshotFile(path);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << keep;
    EXPECT_NE(loaded.status().message().find(path), std::string::npos)
        << "message should name the file: " << loaded.status().ToString();
  }
}

TEST(SnapshotCorruptionTest, EveryPayloadBitFlipIsCaughtByTheChecksum) {
  const std::string dir = FreshDir("bitflip");
  const std::string path = MakeValidSnapshot(dir, "job-0-1.ckpt");
  const std::string original = ReadFileBytes(path);
  constexpr size_t kHeaderBytes = 29;
  for (size_t byte = kHeaderBytes; byte < original.size(); ++byte) {
    std::string corrupt = original;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x40);
    WriteFileBytes(path, corrupt);
    Result<LoadedSnapshot> loaded = ReadSnapshotFile(path);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << byte;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
  }
}

TEST(SnapshotCorruptionTest, WrongMagicAndVersionAreRejected) {
  const std::string dir = FreshDir("header");
  const std::string path = MakeValidSnapshot(dir, "job-0-1.ckpt");
  const std::string original = ReadFileBytes(path);

  std::string wrong_magic = original;
  wrong_magic[0] = 'X';
  WriteFileBytes(path, wrong_magic);
  Result<LoadedSnapshot> loaded = ReadSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);

  std::string wrong_version = original;
  wrong_version[8] = 99;  // version u32 LE starts at offset 8
  WriteFileBytes(path, wrong_version);
  loaded = ReadSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);

  // Stale files must be refused outright rather than parsed into misaligned
  // fields: a pre-v6 file has no model-coverage record, a v7 file still
  // carries the cluster's rate-window record, a v8 file the cluster's
  // load-group table and the pool's seen set, and a v9 file the metadata
  // epochs, the serving meta list, the GlusterFS linkfile census and every
  // RNG's Box-Muller spare.
  for (char stale : {5, 7, 8, 9}) {
    std::string stale_version = original;
    stale_version[8] = stale;
    WriteFileBytes(path, stale_version);
    loaded = ReadSnapshotFile(path);
    ASSERT_FALSE(loaded.ok()) << int{stale};
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  }

  std::string wrong_size = original;
  wrong_size[13] = static_cast<char>(wrong_size[13] + 1);  // payload_size
  WriteFileBytes(path, wrong_size);
  loaded = ReadSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("size"), std::string::npos);
}

// A resuming campaign must skip a corrupt newest snapshot and continue from
// the newest VALID one, still reaching the uninterrupted digest.
TEST(SnapshotCorruptionTest, ResumeFallsBackToNewestValidSnapshot) {
  CampaignConfig checkpointed;
  checkpointed.flavor = Flavor::kGluster;
  checkpointed.seed = 31415;
  checkpointed.budget = Hours(2);
  checkpointed.checkpoint_dir = FreshDir("fallback");
  checkpointed.checkpoint_every_ops = 300;
  ASSERT_TRUE(CrashAfterCheckpoints(checkpointed, "Themis", 3).ok());

  // Corrupt the newest snapshot (ordinal 3) with a payload bit flip.
  const std::string newest = checkpointed.checkpoint_dir + "/job-0-3.ckpt";
  std::string bytes = ReadFileBytes(newest);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() - 5] = static_cast<char>(bytes[bytes.size() - 5] ^ 0x01);
  WriteFileBytes(newest, bytes);
  ExpectResumeMatchesUninterrupted(checkpointed, "Themis");
}

// A candidate that passes its checksum and identity check but fails late in
// the restore (here: one trailing payload byte) must not leave half-restored
// parts behind: the fresh run it falls back to matches an uninterrupted one.
TEST(SnapshotCorruptionTest, LateRestoreFailureFallsBackToCleanFreshRun) {
  for (Flavor flavor : {Flavor::kGluster, Flavor::kHdfs}) {
    const std::string flavor_name(FlavorName(flavor));
    SCOPED_TRACE(flavor_name);
    CampaignConfig checkpointed;
    checkpointed.flavor = flavor;
    checkpointed.seed = 31415;
    checkpointed.budget = Hours(2);
    checkpointed.checkpoint_dir = FreshDir("late_" + flavor_name);
    checkpointed.checkpoint_every_ops = 300;
    ASSERT_TRUE(CrashAfterCheckpoints(checkpointed, "Themis", 1).ok());

    const std::string path = checkpointed.checkpoint_dir + "/job-0-1.ckpt";
    Result<LoadedSnapshot> loaded = ReadSnapshotFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(WriteSnapshotFile(path, loaded->kind, loaded->payload + '\0').ok());
    ExpectResumeMatchesUninterrupted(checkpointed, "Themis");
  }
}

// With every snapshot corrupt, resume degrades to a fresh run — correct,
// just slower — and still produces the uninterrupted digest.
TEST(SnapshotCorruptionTest, AllSnapshotsCorruptMeansFreshRun) {
  CampaignConfig checkpointed;
  checkpointed.flavor = Flavor::kHdfs;
  checkpointed.seed = 27182;
  checkpointed.budget = Hours(1);
  checkpointed.checkpoint_dir = FreshDir("all_corrupt");
  checkpointed.checkpoint_every_ops = 300;
  ASSERT_TRUE(CrashAfterCheckpoints(checkpointed, "Themis", 2).ok());
  for (const auto& entry :
       std::filesystem::directory_iterator(checkpointed.checkpoint_dir)) {
    std::string bytes = ReadFileBytes(entry.path().string());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xff);
    WriteFileBytes(entry.path().string(), bytes);
  }
  ExpectResumeMatchesUninterrupted(checkpointed, "Themis");
}

// A snapshot from a different configuration is refused with a message that
// names the mismatched field — resuming under the wrong config silently
// diverging would be the worst possible failure mode.
TEST(SnapshotCorruptionTest, IdentityMismatchNamesTheField) {
  CampaignConfig config;
  config.flavor = Flavor::kCeph;
  config.seed = 161803;
  config.budget = Hours(1);

  SnapshotWriter writer;
  WriteSnapshotIdentity(writer, "Themis", config);
  const std::string payload = writer.buffer();

  struct Case {
    const char* field;
    CampaignConfig changed;
    std::string strategy = "Themis";
  };
  std::vector<Case> cases;
  cases.push_back({"strategy", config, "Fix_req"});
  Case seed_case{"seed", config};
  seed_case.changed.seed = 1;
  cases.push_back(seed_case);
  Case budget_case{"budget", config};
  budget_case.changed.budget = Hours(2);
  cases.push_back(budget_case);
  Case threshold_case{"threshold_t", config};
  threshold_case.changed.threshold_t = 0.5;
  cases.push_back(threshold_case);
  Case nodes_case{"storage_nodes", config};
  nodes_case.changed.storage_nodes = 12;
  cases.push_back(nodes_case);
  // v4: an env-faulted campaign must not adopt a fault-free snapshot (or
  // vice versa) — the grammars, registries and RNG draw sequences differ.
  Case env_case{"env_faults", config};
  env_case.changed.env_faults = true;
  cases.push_back(env_case);
  // v6: the transition blend weight changes seed-energy assignment, so a
  // snapshot taken under one weight must not resume under another.
  Case weight_case{"transition_weight", config};
  weight_case.changed.transition_weight = 0.5;
  cases.push_back(weight_case);

  for (const Case& c : cases) {
    SnapshotReader reader(payload);
    Status status = CheckSnapshotIdentity(reader, c.strategy, c.changed);
    ASSERT_FALSE(status.ok()) << c.field;
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << "message should name '" << c.field << "': " << status.ToString();
  }

  // The unmodified config passes.
  SnapshotReader reader(payload);
  EXPECT_TRUE(CheckSnapshotIdentity(reader, "Themis", config).ok());
}

// End to end through the campaign: a checkpoint directory holding another
// campaign's snapshot is not silently adopted.
TEST(SnapshotCorruptionTest, CampaignRefusesForeignSnapshotAndRunsFresh) {
  CampaignConfig other;
  other.flavor = Flavor::kLeo;
  other.seed = 555;
  other.budget = Hours(1);
  other.checkpoint_dir = FreshDir("foreign");
  other.checkpoint_every_ops = 300;
  ASSERT_TRUE(CrashAfterCheckpoints(other, "Themis", 1).ok());

  CampaignConfig mine = other;
  mine.seed = 556;  // different campaign
  ExpectResumeMatchesUninterrupted(mine, "Themis");
}

// Field-level validation of the EnvFaultInjector record: it arms live fault
// machinery on restore, so every malformed record — a rate beyond the
// grammar bound, an impossible slow-disk factor, a duplicate entry, a
// restart schedule whose times go backwards — must fail the snapshot
// instead of arming an out-of-grammar schedule. Restarts due at the same
// instant are legal and keep their record order, which is their firing
// order.
TEST(SnapshotCorruptionTest, MalformedEnvFaultRecordsAreRejected) {
  auto rates = [](SnapshotWriter& writer, uint64_t loss) {
    writer.U64(loss);
    writer.U64(0);  // reorder
    writer.U64(0);  // duplicate
    writer.U64(0);  // corrupt
  };
  auto expect_rejected = [](const SnapshotWriter& writer, const char* needle) {
    EnvFaultInjector injector(/*seed=*/1);
    SnapshotReader reader(writer.buffer());
    Status status = injector.RestoreState(reader);
    ASSERT_FALSE(status.ok()) << needle;
    EXPECT_NE(status.message().find("malformed env fault record"),
              std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.ToString();
  };

  {  // A message-fault rate beyond the 500 permille grammar bound.
    SnapshotWriter writer;
    rates(writer, 600);
    expect_rejected(writer, "message-loss rate 600 out of range");
  }
  {  // A slow-disk factor below the 110% floor.
    SnapshotWriter writer;
    rates(writer, 0);
    writer.U64(1);   // one slow-disk entry
    writer.U32(3);   // node
    writer.U64(50);  // percent: out of [110, 1000]
    writer.I64(10);  // until
    expect_rejected(writer, "slow-disk factor 50 out of range");
  }
  {  // The same node degraded twice in one record.
    SnapshotWriter writer;
    rates(writer, 0);
    writer.U64(2);
    for (int i = 0; i < 2; ++i) {
      writer.U32(3);
      writer.U64(200);
      writer.I64(10);
    }
    expect_rejected(writer, "duplicate slow-disk entry for node 3");
  }
  {  // A restart schedule whose times go backwards.
    SnapshotWriter writer;
    rates(writer, 0);
    writer.U64(0);  // no slow disks
    writer.U64(2);  // two scheduled restarts
    writer.I64(100);
    writer.U32(1);
    writer.I64(50);  // earlier than its predecessor
    writer.U32(2);
    expect_rejected(writer, "restart schedule not sorted");
  }
  {  // Two restarts at the same instant, the later-scheduled node first.
    SnapshotWriter writer;
    rates(writer, 0);
    writer.U64(0);
    writer.U64(2);
    writer.I64(100);
    writer.U32(2);
    writer.I64(100);
    writer.U32(1);
    Rng(1).SaveState(writer);
    EnvFaultInjector injector(/*seed=*/7);
    SnapshotReader reader(writer.buffer());
    Status status = injector.RestoreState(reader);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(injector.pending_restarts(), 2u);
    SnapshotWriter saved;
    injector.SaveState(saved);
    EXPECT_EQ(saved.buffer(), writer.buffer()) << "simultaneous restarts reordered";
  }
}

// The GeoFS flavor record (format v9, DESIGN.md §15) is the payload's
// tail but for the base cluster's U32 balancer-crash census after it: U32
// group count, U64 node count, per node (U32 id, U32 site, U32 rack,
// U32 group) in id order.
// Placement reads group membership from it alone, so every corrupt shape
// must fail the restore with a message naming the node or the count.
TEST(SnapshotCorruptionTest, GeoFlavorStateCorruptionIsRejected) {
  GeoLikeCluster dfs;
  // A decommissioned node stays in the node map, offline and untagged.
  Operation decommission;
  decommission.kind = OpKind::kRemoveStorageNode;
  decommission.node = dfs.ListStorageNodes().front();
  ASSERT_TRUE(dfs.Execute(decommission).status.ok());
  ASSERT_FALSE(dfs.FindStorageNode(decommission.node)->online);
  SnapshotWriter writer;
  dfs.SaveState(writer);
  const std::string& bytes = writer.buffer();

  // Locate the record from the tail, and cross-check it against the
  // engine's own (public) view.
  std::vector<NodeId> ids = dfs.ListStorageNodes();
  ASSERT_GE(ids.size(), 2u);
  ASSERT_GE(dfs.engine().group_count(), 2u);
  constexpr size_t kEntryBytes = 16;
  const size_t record = bytes.size() - (4 + 8 + kEntryBytes * ids.size() + 4);
  SnapshotWriter expected;
  expected.U32(dfs.engine().group_count());
  expected.U64(ids.size());
  for (NodeId id : ids) {
    GeoTag tag = dfs.engine().TagOf(id);
    expected.U32(id);
    expected.U32(tag.site);
    expected.U32(tag.rack);
    expected.U32(dfs.engine().GroupOf(id));
  }
  expected.U32(dfs.balancer_crashes());
  ASSERT_EQ(bytes.substr(record), expected.buffer());
  auto entry = [&](size_t i) { return record + 4 + 8 + kEntryBytes * i; };

  auto patch_u32 = [](std::string& payload, size_t at, uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      payload[at + static_cast<size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xff);
    }
  };
  auto expect_rejected = [](const std::string& payload, const std::string& message) {
    GeoLikeCluster fresh;
    SnapshotReader reader(payload);
    Status status = fresh.RestoreState(reader);
    ASSERT_FALSE(status.ok()) << message;
    EXPECT_NE(status.message().find(message), std::string::npos)
        << status.ToString();
  };

  std::string unknown = bytes;
  patch_u32(unknown, entry(0), 999999);
  expect_rejected(unknown, "geotag references unknown storage node 999999");

  std::string duplicate = bytes;
  patch_u32(duplicate, entry(1), ids[0]);  // the first node listed twice
  expect_rejected(duplicate, Sprintf("duplicate geotag for storage node %u", ids[0]));

  std::string offline = bytes;
  patch_u32(offline, entry(0), decommission.node);
  expect_rejected(offline,
                  Sprintf("geotag for offline storage node %u", decommission.node));

  std::string bad_site = bytes;
  patch_u32(bad_site, entry(0) + 4, 99);  // site beyond the 3-site tree
  expect_rejected(bad_site, "out of tree bounds");

  std::string bad_group = bytes;
  patch_u32(bad_group, entry(0) + 12, 1u << 20);
  expect_rejected(bad_group,
                  Sprintf("scheduling group 1048576 for node %u out of range", ids[0]));

  // A count that leaves some node's group out, and one no group table
  // should ever be sized to.
  std::string short_count = bytes;
  patch_u32(short_count, record, 1);
  expect_rejected(short_count, "scheduling group count 1 does not cover group");
  std::string huge_count = bytes;
  patch_u32(huge_count, record, 0xffffffffu);
  expect_rejected(huge_count, "scheduling group count 4294967295 out of range");

  // An online node left out of the record would never receive a replica.
  SnapshotWriter missing_tail;
  missing_tail.U32(dfs.engine().group_count());
  missing_tail.U64(ids.size() - 1);
  std::string missing = bytes.substr(0, record) + missing_tail.buffer() +
                        bytes.substr(entry(0), kEntryBytes * (ids.size() - 1)) +
                        bytes.substr(bytes.size() - 4);
  expect_rejected(missing, Sprintf("online storage node %u missing from the geotag record",
                                   ids.back()));

  GeoLikeCluster fresh;
  SnapshotReader ok_reader(bytes);
  EXPECT_TRUE(fresh.RestoreState(ok_reader).ok());
}

// The model-coverage record is the covered pair list (DESIGN.md §16), so
// every malformed shape — a pair count the bytes cannot hold, a pair listed
// twice, a state id from another flavor's machine — must fail the restore
// descriptively. End to end, a campaign whose newest snapshot rots this way
// falls back to the newest valid one (ResumeFallsBackToNewestValidSnapshot
// covers the file layer).
SnapshotWriter ModelCoverageRecord(BalancerState current,
                                   std::vector<std::pair<BalancerState, BalancerState>> pairs,
                                   uint64_t pair_count) {
  SnapshotWriter writer;
  writer.U8(static_cast<uint8_t>(Flavor::kGluster));
  writer.U8(static_cast<uint8_t>(current));
  writer.U64(0);  // illegal transitions
  writer.U64(pair_count);
  for (const auto& [from, to] : pairs) {
    writer.U8(static_cast<uint8_t>(from));
    writer.U8(static_cast<uint8_t>(to));
  }
  return writer;
}

Status RestoreGlusterModelCoverage(const SnapshotWriter& writer) {
  ModelCoverage fresh(Flavor::kGluster);
  SnapshotReader reader(writer.buffer());
  return fresh.RestoreState(reader);
}

TEST(SnapshotCorruptionTest, ModelCoveragePairListCorruptionIsRejected) {
  const std::pair<BalancerState, BalancerState> fix_layout{BalancerState::kIdle,
                                                           BalancerState::kGlusterFixLayout};
  auto expect_rejected = [](const SnapshotWriter& writer, const char* message) {
    Status status = RestoreGlusterModelCoverage(writer);
    ASSERT_FALSE(status.ok()) << message;
    EXPECT_NE(status.message().find(message), std::string::npos) << status.ToString();
  };
  // A pair count far beyond the bytes left: must fail fast, not loop.
  expect_rejected(ModelCoverageRecord(BalancerState::kIdle, {}, ~uint64_t{0}),
                  "cannot fit in remaining 0 bytes");
  // The same pair listed twice.
  expect_rejected(ModelCoverageRecord(BalancerState::kIdle, {fix_layout, fix_layout}, 2),
                  "model coverage: duplicate transition pair");

  // A recorder's own record restores cleanly.
  ModelCoverage original(Flavor::kGluster);
  original.Transition(BalancerState::kGlusterFixLayout);
  original.Transition(BalancerState::kGlusterMigrateData);
  SnapshotWriter writer;
  original.SaveState(writer);
  EXPECT_EQ(writer.buffer(),
            ModelCoverageRecord(BalancerState::kGlusterMigrateData,
                                {fix_layout,
                                 {BalancerState::kGlusterFixLayout,
                                  BalancerState::kGlusterMigrateData}},
                                2)
                .buffer());
  EXPECT_TRUE(RestoreGlusterModelCoverage(writer).ok());
}

TEST(SnapshotCorruptionTest, ModelCoverageUnknownStateIdIsRejected) {
  auto expect_rejected = [](const SnapshotWriter& writer) {
    Status status = RestoreGlusterModelCoverage(writer);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("model coverage: unknown balancer state"),
              std::string::npos)
        << status.ToString();
  };
  // A current state id beyond the enum.
  expect_rejected(ModelCoverageRecord(static_cast<BalancerState>(200), {}, 0));
  // A current state from another flavor's machine (HDFS pairing inside a
  // Gluster record): structurally a valid id, semantically foreign.
  expect_rejected(ModelCoverageRecord(BalancerState::kHdfsPairing, {}, 0));
  // A pair state outside the flavor, and one beyond the enum.
  expect_rejected(ModelCoverageRecord(
      BalancerState::kIdle, {{BalancerState::kIdle, BalancerState::kCephApply}}, 1));
  expect_rejected(ModelCoverageRecord(
      BalancerState::kIdle, {{static_cast<BalancerState>(18), BalancerState::kIdle}}, 1));
}

TEST(SnapshotCorruptionTest, ModelRejectsOutOfRangePreviousWindowNode) {
  SnapshotWriter writer;
  writer.U64(1);                // one previous-window entry
  writer.U32((1u << 24) + 1);   // hostile dense index
  writer.F64(1.0);
  writer.U64(5);
  writer.F64(1.0);              // EMA computation
  writer.F64(1.0);              // EMA network
  LoadVarianceModel model;
  SnapshotReader reader(writer.buffer());
  Status status = model.RestoreState(reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out of range"), std::string::npos)
      << status.ToString();
}

// A cluster record that passes the checksum can still carry ids the id
// counters could not have issued, or a topology the audit refuses. Each must
// fail the restore with a status naming the id or brick, never crash it,
// size a vector by a hostile id, or pass it.
TEST(SnapshotCorruptionTest, ClusterRecordCorruptionIsRejected) {
  // Ten nodes: meta nodes 1-2, storage nodes 3-10 with bricks 1-8.
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 1);
  ASSERT_EQ(dfs->bricks().size(), 8u);
  ASSERT_EQ(dfs->FindBrick(1)->node, 3u);
  ASSERT_EQ(dfs->FindBrick(2)->node, 4u);
  SnapshotWriter writer;
  dfs->SaveState(writer);
  const std::string& bytes = writer.buffer();

  // The brick table, the empty layout list, and the id counters (next node
  // id 11, next brick id 9).
  SnapshotWriter brick_table;
  brick_table.U64(dfs->bricks().size());
  for (const auto& [id, brick] : dfs->bricks()) {
    brick_table.U32(id);
    brick_table.U32(brick.node);
    brick_table.U64(brick.capacity_bytes);
    brick_table.U64(brick.used_bytes);
    brick_table.Bool(brick.online);
    brick_table.U32(brick.linkfiles);
  }
  brick_table.U64(0);
  brick_table.U32(11);
  brick_table.U32(9);
  const size_t bricks_at = bytes.find(brick_table.buffer());
  ASSERT_NE(bricks_at, std::string::npos);
  ASSERT_EQ(bytes.rfind(brick_table.buffer()), bricks_at);
  const size_t brick1_id = bricks_at + 8;
  const size_t brick1_used = brick1_id + 4 + 4 + 8;
  const size_t next_node_id = bricks_at + brick_table.buffer().size() - 8;

  auto patched = [&](size_t at, uint64_t value, int width) {
    std::string payload = bytes;
    for (int i = 0; i < width; ++i) {
      payload[at + static_cast<size_t>(i)] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    return payload;
  };
  auto expect_rejected = [](const std::string& payload, const std::string& message) {
    std::unique_ptr<DfsCluster> fresh = MakeCluster(Flavor::kHdfs, 1);
    SnapshotReader reader(payload);
    Status status = fresh->RestoreState(reader);
    ASSERT_FALSE(status.ok()) << message;
    EXPECT_NE(status.message().find(message), std::string::npos) << status.ToString();
  };

  expect_rejected(patched(brick1_id, 0xffffffffu, 4),
                  "brick id 4294967295 at or above the brick id counter 9");
  expect_rejected(patched(brick1_id, 0x7fffffffu, 4),
                  "brick id 2147483647 at or above the brick id counter 9");
  expect_rejected(patched(brick1_id, 0x100000u, 4),
                  "brick id 1048576 at or above the brick id counter 9");
  expect_rejected(patched(brick1_id + 4, 0xffffffffu, 4),
                  "brick 1 names node 4294967295, at or above the node id counter 11");
  expect_rejected(patched(next_node_id, 0x7fffffffu, 4),
                  "node id counter 2147483647 out of range");
  expect_rejected(patched(next_node_id, 2, 4), "meta node id 2 at or above the node id counter 2");
  expect_rejected(patched(brick1_used, 1, 8),
                  "brick 1 holds 1 bytes, but its replicas and linkfiles sum to 0");
  // Restore derives each node's brick list from the bricks, so a brick must
  // name a storage node; meta node 1 is not one.
  expect_rejected(patched(brick1_id + 4, 1, 4),
                  "brick 1 names node 1, which is not a storage node");

  // A storage record is at least 38 bytes (id, two flags, 32 bytes of load
  // counters), so a count that leaves one byte short of that per record is
  // refused at the count.
  SnapshotWriter storage_head;
  storage_head.U64(8);
  storage_head.U32(3);
  const size_t storage_count_at = bytes.find(storage_head.buffer());
  ASSERT_NE(storage_count_at, std::string::npos);
  ASSERT_EQ(bytes.rfind(storage_head.buffer()), storage_count_at);
  SnapshotWriter short_table;
  short_table.U64(8);
  expect_rejected(bytes.substr(0, storage_count_at) + short_table.buffer() +
                      std::string(8 * 38 - 1, '\0'),
                  "element count 8 cannot fit in remaining 303 bytes");

  std::unique_ptr<DfsCluster> fresh = MakeCluster(Flavor::kHdfs, 1);
  SnapshotReader reader(bytes);
  EXPECT_TRUE(fresh->RestoreState(reader).ok());
}

// A chunk's replica set holds at most kReplication ids inline, so restore
// must refuse a record that lists more before it reads them, naming the
// file and the chunk.
TEST(SnapshotCorruptionTest, ChunkWithTooManyReplicasIsRejected) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 1);
  Operation create;
  create.kind = OpKind::kCreate;
  create.path = "/f";
  create.size = 3 * kGiB;  // two chunks
  ASSERT_TRUE(dfs->Execute(create).status.ok());
  ASSERT_EQ(dfs->file_layouts().size(), 1u);
  const auto& [file, layout] = *dfs->file_layouts().begin();
  ASSERT_EQ(layout.chunks.size(), 2u);
  SnapshotWriter writer;
  dfs->SaveState(writer);
  const std::string& bytes = writer.buffer();

  // The file's layout record, up to the second chunk's replica count.
  SnapshotWriter record;
  record.U64(file);
  record.U64(layout.chunks.size());
  record.U64(layout.chunks[0].bytes);
  record.U64(layout.chunks[0].replicas.size());
  for (BrickId replica : layout.chunks[0].replicas) record.U32(replica);
  record.U64(layout.chunks[1].bytes);
  record.U64(layout.chunks[1].replicas.size());
  const size_t record_at = bytes.find(record.buffer());
  ASSERT_NE(record_at, std::string::npos);
  ASSERT_EQ(bytes.rfind(record.buffer()), record_at);
  std::string payload = bytes;
  payload[record_at + record.buffer().size() - 8] = static_cast<char>(kReplication + 1);

  std::unique_ptr<DfsCluster> fresh = MakeCluster(Flavor::kHdfs, 1);
  SnapshotReader reader(payload);
  Status status = fresh->RestoreState(reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(Sprintf("file %llu chunk 1 holds 3 replicas, more than 2",
                                          static_cast<unsigned long long>(file))),
            std::string::npos)
      << status.ToString();

  std::unique_ptr<DfsCluster> intact = MakeCluster(Flavor::kHdfs, 1);
  SnapshotReader intact_reader(bytes);
  EXPECT_TRUE(intact->RestoreState(intact_reader).ok());
}

// The namespace's file count is its id map's size, so restore must refuse a
// file id listed twice (which would shrink the count) and one the id
// allocator could not have issued.
TEST(SnapshotCorruptionTest, NamespaceFileIdsAreChecked) {
  // The root, files /a and /b with the given ids, and the id allocator.
  auto restore_namespace = [](FileId a, FileId b, FileId next_file_id) {
    SnapshotWriter writer;
    writer.U64(3);
    for (const auto& [path, is_dir, file] :
         {std::tuple<const char*, bool, FileId>{"/", true, 0}, {"/a", false, a},
          {"/b", false, b}}) {
      writer.Str(path);
      writer.Bool(is_dir);
      writer.U64(file);
    }
    writer.U64(next_file_id);
    NamespaceTree tree;
    SnapshotReader reader(writer.buffer());
    Status status = tree.RestoreState(reader);
    EXPECT_TRUE(!status.ok() || tree.file_count() == 2);
    return status;
  };
  EXPECT_TRUE(restore_namespace(1, 2, 3).ok());
  Status status = restore_namespace(2, 2, 3);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("namespace lists file id 2 twice"), std::string::npos)
      << status.ToString();
  status = restore_namespace(1, 3, 3);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("file id 3 at or above the file id counter 3"),
            std::string::npos)
      << status.ToString();
}

// File existence lives in both the namespace and the layout table, so the
// restore audit refuses a layout for a file the namespace lacks.
TEST(SnapshotCorruptionTest, LayoutForAFileTheNamespaceLacksIsRejected) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 1);
  Operation create;
  create.kind = OpKind::kCreate;
  create.path = "/f";
  create.size = kGiB;
  ASSERT_TRUE(dfs->Execute(create).status.ok());
  ASSERT_EQ(dfs->file_layouts().size(), 1u);
  const auto& [file, layout] = *dfs->file_layouts().begin();
  SnapshotWriter writer;
  dfs->SaveState(writer);
  const std::string& bytes = writer.buffer();

  // The layout table: one file, then its chunk list.
  SnapshotWriter record;
  record.U64(1);
  record.U64(file);
  record.U64(layout.chunks.size());
  record.U64(layout.chunks[0].bytes);
  const size_t record_at = bytes.find(record.buffer());
  ASSERT_NE(record_at, std::string::npos);
  ASSERT_EQ(bytes.rfind(record.buffer()), record_at);
  std::string payload = bytes;
  payload[record_at + 8] = static_cast<char>(file + 1);

  std::unique_ptr<DfsCluster> fresh = MakeCluster(Flavor::kHdfs, 1);
  SnapshotReader reader(payload);
  Status status = fresh->RestoreState(reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(Sprintf("file %llu has a layout but no namespace entry",
                                          static_cast<unsigned long long>(file + 1))),
            std::string::npos)
      << status.ToString();
}

// The fault history lives in a fixed ring of 16 entries, and the LeoFS ring
// weights in an id-sorted vector, so restore must refuse a record that lists
// more entries than the ring holds, an op kind out of range, or weights out
// of id order, before it stores them.
TEST(SnapshotCorruptionTest, HistoryRecordsLongerThanTheirRingsAreRejected) {
  // An injector record with no faults: the history as one sequence of
  // (kind, rounds, imbalance, hot) entries, then the injector's RNG.
  auto injector_record = [](uint64_t ops, uint8_t last_kind) {
    SnapshotWriter writer;
    writer.U64(0);
    writer.U64(ops);
    for (uint64_t i = 0; i < ops; ++i) {
      writer.U8(i + 1 == ops ? last_kind : static_cast<uint8_t>(OpKind::kCreate));
      writer.I64(0);
      writer.F64(0.0);
      writer.Bool(false);
    }
    Rng(1).SaveState(writer);
    return writer;
  };
  auto restore_injector = [](const SnapshotWriter& writer) {
    FaultInjector injector({}, 1);
    SnapshotReader reader(writer.buffer());
    return injector.RestoreState(reader);
  };
  const uint8_t create = static_cast<uint8_t>(OpKind::kCreate);
  EXPECT_TRUE(restore_injector(injector_record(16, create)).ok());
  Status status = restore_injector(injector_record(17, create));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fault history holds 17 ops, more than 16"),
            std::string::npos)
      << status.ToString();
  status = restore_injector(injector_record(5, static_cast<uint8_t>(kTotalOpKindCount)));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(Sprintf("history op kind %d out of range", kTotalOpKindCount)),
            std::string::npos)
      << status.ToString();

  // A fresh LeoFS cluster's record ends with its ring weights (a count, then
  // id and weight per brick in id order) and the U32 crash census.
  std::unique_ptr<DfsCluster> leo = MakeCluster(Flavor::kLeo, 1);
  SnapshotWriter leo_writer;
  leo->SaveState(leo_writer);
  const std::string& leo_bytes = leo_writer.buffer();
  const size_t bricks = leo->bricks().size();
  const size_t weights_at = leo_bytes.size() - 4 - (8 + 12 * bricks);
  ASSERT_EQ(static_cast<uint8_t>(leo_bytes[weights_at]), bricks);
  ASSERT_EQ(static_cast<uint8_t>(leo_bytes[weights_at + 8]), 1u);   // first id
  ASSERT_EQ(static_cast<uint8_t>(leo_bytes[weights_at + 20]), 2u);  // second id
  std::string duplicate = leo_bytes;
  duplicate[weights_at + 20] = 1;
  std::unique_ptr<DfsCluster> fresh_leo = MakeCluster(Flavor::kLeo, 1);
  SnapshotReader leo_reader(duplicate);
  status = fresh_leo->RestoreState(leo_reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ring weight for brick 1 is out of id order"),
            std::string::npos)
      << status.ToString();
  std::unique_ptr<DfsCluster> intact_leo = MakeCluster(Flavor::kLeo, 1);
  SnapshotReader intact_reader(leo_bytes);
  EXPECT_TRUE(intact_leo->RestoreState(intact_reader).ok());
}

// The cluster stamps each op class with its op count (total_ops_executed) at
// the class's last op, so restore must refuse a stamp above the count: no op
// could have issued it.
TEST(SnapshotCorruptionTest, ClassStampsAboveTheOpCounterAreRejected) {
  // Five file-class ops: the op counter reads 5, the file class's stamp 5
  // and the other three classes' 0.
  std::unique_ptr<DfsCluster> hdfs = MakeCluster(Flavor::kHdfs, 1);
  for (int i = 0; i < 5; ++i) {
    Operation mkdir;
    mkdir.kind = OpKind::kMkdir;
    mkdir.path = "/d" + std::to_string(i);
    ASSERT_TRUE(hdfs->Execute(mkdir).status.ok());
  }
  SnapshotWriter cluster;
  hdfs->SaveState(cluster);
  const std::string& bytes = cluster.buffer();
  // HDFS writes no flavor record: the op counter and the four stamps sit just
  // before the U32 crash census that closes the record.
  SnapshotWriter counters;
  counters.U64(5);
  for (uint64_t stamp : {5, 0, 0, 0}) counters.U64(stamp);
  const size_t counters_at = bytes.size() - 4 - counters.buffer().size();
  ASSERT_EQ(bytes.substr(counters_at, counters.buffer().size()), counters.buffer());
  auto restore_with_stamp = [&](size_t op_class, uint64_t stamp) {
    std::string payload = bytes;
    SnapshotWriter patch;
    patch.U64(stamp);
    payload.replace(counters_at + 8 + 8 * op_class, 8, patch.buffer());
    std::unique_ptr<DfsCluster> fresh = MakeCluster(Flavor::kHdfs, 1);
    SnapshotReader reader(payload);
    return fresh->RestoreState(reader);
  };
  EXPECT_TRUE(restore_with_stamp(0, 5).ok()) << "the intact record: a stamp at the counter";
  for (size_t op_class : {0, 1, 3}) {
    Status status = restore_with_stamp(op_class, 6);
    ASSERT_FALSE(status.ok()) << op_class;
    EXPECT_NE(status.message().find(Sprintf(
                  "operation class %zu stamped at op 6, after the 5 ops executed", op_class)),
              std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace themis
