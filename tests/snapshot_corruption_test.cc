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
#include <vector>

#include "src/common/snapshot_io.h"
#include "src/common/strings.h"
#include "src/core/bandit.h"
#include "src/core/input_model.h"
#include "src/core/strategy_registry.h"
#include "src/coverage/model_coverage.h"
#include "src/dfs/flavors/factory.h"
#include "src/dfs/flavors/geo_like.h"
#include "src/faults/env_fault.h"
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
  // fields: a pre-v6 file has no model-coverage record or bandit arm
  // tables, a v7 file still carries the cluster's rate-window record, and
  // a v8 file the cluster's load-group table and the pool's seen set.
  for (char stale : {5, 7, 8}) {
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

// Format v4 field-level validation: the EnvFaultInjector record arms live
// fault machinery on restore, so every malformed record — a rate beyond the
// grammar bound, an impossible slow-disk factor, a duplicate or unsorted
// entry, a restart sequence number the injector never issued — must fail
// the snapshot instead of arming an out-of-grammar schedule.
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
  {  // A restart schedule that is not sorted by (time, sequence).
    SnapshotWriter writer;
    rates(writer, 0);
    writer.U64(0);  // no slow disks
    writer.U64(2);  // two scheduled restarts
    writer.I64(100);
    writer.U32(1);
    writer.U64(1);
    writer.I64(50);  // earlier than its predecessor
    writer.U32(2);
    writer.U64(2);
    expect_rejected(writer, "restart schedule not sorted");
  }
  {  // A restart carrying a sequence number the injector never issued.
    SnapshotWriter writer;
    rates(writer, 0);
    writer.U64(0);
    writer.U64(1);
    writer.I64(100);
    writer.U32(1);
    writer.U64(5);  // seq 5 ...
    writer.U64(2);  // ... but next_restart_seq claims only 2 were issued
    expect_rejected(writer, "restart sequence from the future");
  }
}

// The GeoFS flavor record (format v9, DESIGN.md §15) is the payload's
// tail: U32 group count, U64 node count, per node (U32 id, U32 site,
// U32 rack, U32 group) in id order, then the U32 balancer-crash census.
// Placement reads group membership from it alone, so every corrupt shape
// must fail the restore with a message naming the node or the count.
TEST(SnapshotCorruptionTest, GeoFlavorStateCorruptionIsRejected) {
  GeoLikeCluster dfs;
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

// Format v6 field-level validation (DESIGN.md §16): the model-coverage
// record and the bandit arm tables restore into indexed counters and live
// scheduling state, so every malformed shape — a truncated arm table, a
// transition count that cannot match the pair list, a state id from another
// flavor's machine — must fail the restore descriptively. End to end, a
// campaign whose newest snapshot rots this way falls back to the newest
// valid one (ResumeFallsBackToNewestValidSnapshot covers the file layer).
TEST(SnapshotCorruptionTest, TruncatedBanditArmTableIsRejected) {
  Rng rng(1);
  InputModel model;
  auto made = StrategyRegistry::Instance().Make("Bandit", model, rng);
  ASSERT_TRUE(made.ok());
  BanditStrategy* bandit = static_cast<BanditStrategy*>(made->get());
  SnapshotWriter writer;
  bandit->SaveState(writer);

  // A snapshot advertising fewer arms than the live strategy has.
  SnapshotWriter truncated;
  truncated.I64(0);  // active arm
  truncated.I64(0);  // round position
  truncated.U64(bandit->arms().size() - 1);
  SnapshotReader count_reader(truncated.buffer());
  Status status = bandit->RestoreState(count_reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bandit arm table truncated"),
            std::string::npos)
      << status.ToString();

  // A renamed arm: the count matches but the table belongs to a different
  // arm set, so adopting the statistics would misattribute every reward.
  std::string renamed = writer.buffer();
  const std::string& first_name = bandit->arms()[0].name;
  size_t pos = renamed.find(first_name);
  ASSERT_NE(pos, std::string::npos);
  renamed[pos] = 'X';
  SnapshotReader rename_reader(renamed);
  status = bandit->RestoreState(rename_reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bandit arm table truncated"),
            std::string::npos)
      << status.ToString();

  // An active-arm index beyond the table.
  SnapshotWriter bad_active;
  bad_active.I64(static_cast<int64_t>(bandit->arms().size()));
  bad_active.I64(0);
  bad_active.U64(bandit->arms().size());
  SnapshotReader active_reader(bad_active.buffer());
  status = bandit->RestoreState(active_reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bandit schedule state out of range"),
            std::string::npos)
      << status.ToString();

  // The unmodified record restores cleanly.
  SnapshotReader ok_reader(writer.buffer());
  EXPECT_TRUE(bandit->RestoreState(ok_reader).ok());
}

TEST(SnapshotCorruptionTest, ModelCoverageTransitionCountOverflowIsRejected) {
  ModelCoverage original(Flavor::kGluster);
  original.Transition(BalancerState::kGlusterFixLayout);
  original.Transition(BalancerState::kGlusterMigrateData);
  SnapshotWriter writer;
  original.SaveState(writer);

  auto expect_rejected = [](const std::string& payload, const char* message) {
    ModelCoverage fresh(Flavor::kGluster);
    SnapshotReader reader(payload);
    Status status = fresh.RestoreState(reader);
    ASSERT_FALSE(status.ok()) << message;
    EXPECT_NE(status.message().find(message), std::string::npos)
        << status.ToString();
  };

  // A covered count far beyond the pair table: must fail fast, not allocate.
  {
    SnapshotWriter corrupt;
    corrupt.U8(static_cast<uint8_t>(Flavor::kGluster));
    corrupt.U8(static_cast<uint8_t>(BalancerState::kIdle));
    corrupt.U64(2);              // total
    corrupt.U64(0);              // illegal
    corrupt.U64(~uint64_t{0});   // covered: overflow
    expect_rejected(corrupt.buffer(),
                    "model coverage: transition count overflow");
  }
  // Pair counts that cannot sum to the recorded total.
  {
    SnapshotWriter corrupt;
    corrupt.U8(static_cast<uint8_t>(Flavor::kGluster));
    corrupt.U8(static_cast<uint8_t>(BalancerState::kIdle));
    corrupt.U64(2);  // total claims two transitions...
    corrupt.U64(0);
    corrupt.U64(1);  // ...but the single pair carries five
    corrupt.U8(static_cast<uint8_t>(BalancerState::kIdle));
    corrupt.U8(static_cast<uint8_t>(BalancerState::kGlusterFixLayout));
    corrupt.U64(5);
    expect_rejected(corrupt.buffer(),
                    "model coverage: transition count overflow");
  }
  // The same pair listed twice.
  {
    SnapshotWriter corrupt;
    corrupt.U8(static_cast<uint8_t>(Flavor::kGluster));
    corrupt.U8(static_cast<uint8_t>(BalancerState::kIdle));
    corrupt.U64(2);
    corrupt.U64(0);
    corrupt.U64(2);
    for (int i = 0; i < 2; ++i) {
      corrupt.U8(static_cast<uint8_t>(BalancerState::kIdle));
      corrupt.U8(static_cast<uint8_t>(BalancerState::kGlusterFixLayout));
      corrupt.U64(1);
    }
    expect_rejected(corrupt.buffer(),
                    "model coverage: duplicate transition pair");
  }

  // The unmodified record restores cleanly.
  ModelCoverage fresh(Flavor::kGluster);
  SnapshotReader ok_reader(writer.buffer());
  EXPECT_TRUE(fresh.RestoreState(ok_reader).ok());
}

TEST(SnapshotCorruptionTest, ModelCoverageUnknownStateIdIsRejected) {
  auto expect_rejected = [](const std::string& payload) {
    ModelCoverage fresh(Flavor::kGluster);
    SnapshotReader reader(payload);
    Status status = fresh.RestoreState(reader);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("model coverage: unknown balancer state"),
              std::string::npos)
        << status.ToString();
  };

  // A current state id beyond the enum.
  {
    SnapshotWriter corrupt;
    corrupt.U8(static_cast<uint8_t>(Flavor::kGluster));
    corrupt.U8(200);  // no such BalancerState
    corrupt.U64(0);
    corrupt.U64(0);
    corrupt.U64(0);
    expect_rejected(corrupt.buffer());
  }
  // A current state from another flavor's machine (HDFS pairing inside a
  // Gluster record): structurally a valid id, semantically foreign.
  {
    SnapshotWriter corrupt;
    corrupt.U8(static_cast<uint8_t>(Flavor::kGluster));
    corrupt.U8(static_cast<uint8_t>(BalancerState::kHdfsPairing));
    corrupt.U64(0);
    corrupt.U64(0);
    corrupt.U64(0);
    expect_rejected(corrupt.buffer());
  }
  // A foreign state id inside a transition pair.
  {
    SnapshotWriter corrupt;
    corrupt.U8(static_cast<uint8_t>(Flavor::kGluster));
    corrupt.U8(static_cast<uint8_t>(BalancerState::kIdle));
    corrupt.U64(1);
    corrupt.U64(0);
    corrupt.U64(1);
    corrupt.U8(static_cast<uint8_t>(BalancerState::kIdle));
    corrupt.U8(static_cast<uint8_t>(BalancerState::kCephApply));
    corrupt.U64(1);
    expect_rejected(corrupt.buffer());
  }
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

  // The brick table, the empty layout and op-class lists, and the id
  // counters (next node id 11, next brick id 9).
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
  brick_table.U64(0);
  brick_table.U32(11);
  brick_table.U32(9);
  const size_t bricks_at = bytes.find(brick_table.buffer());
  ASSERT_NE(bricks_at, std::string::npos);
  ASSERT_EQ(bytes.rfind(brick_table.buffer()), bricks_at);
  const size_t brick1_id = bricks_at + 8;
  const size_t brick1_used = brick1_id + 4 + 4 + 8;
  const size_t next_node_id = bricks_at + brick_table.buffer().size() - 8;
  // Storage node 4's entry, up to its one listed brick.
  SnapshotWriter node4;
  node4.U32(4);
  node4.Bool(true);
  node4.Bool(false);
  node4.U64(1);
  node4.U32(2);
  const size_t node4_at = bytes.find(node4.buffer());
  ASSERT_NE(node4_at, std::string::npos);
  const size_t node4_brick = node4_at + node4.buffer().size() - 4;

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
  expect_rejected(patched(node4_brick, 1, 4), "brick 2 is not listed by its node 4");

  std::unique_ptr<DfsCluster> fresh = MakeCluster(Flavor::kHdfs, 1);
  SnapshotReader reader(bytes);
  EXPECT_TRUE(fresh->RestoreState(reader).ok());
}

}  // namespace
}  // namespace themis
