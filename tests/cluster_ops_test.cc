// Operation semantics of the DFS cluster engine, exercised across all four
// flavors (parameterized) plus flavor-specific behaviors.

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/dfs/cluster_audit.h"
#include "src/dfs/flavors/ceph_like.h"
#include "src/dfs/flavors/factory.h"
#include "src/dfs/flavors/gluster_like.h"
#include "src/dfs/flavors/hdfs_like.h"
#include "src/dfs/flavors/leo_like.h"

namespace themis {
namespace {

Operation MakeCreate(const std::string& path, uint64_t size) {
  Operation op;
  op.kind = OpKind::kCreate;
  op.path = path;
  op.size = size;
  return op;
}

Operation MakeOp(OpKind kind, const std::string& path = "", uint64_t size = 0) {
  Operation op;
  op.kind = kind;
  op.path = path;
  op.size = size;
  return op;
}

// The size of the file at `path`: the sum of its layout's chunks.
uint64_t FileSize(const DfsCluster& dfs, const std::string& path) {
  return dfs.file_layouts().at(*dfs.tree().FileIdOf(path)).Size();
}

class ClusterOpsTest : public ::testing::TestWithParam<Flavor> {
 protected:
  void SetUp() override { dfs_ = MakeCluster(GetParam(), 99); }
  std::unique_ptr<DfsCluster> dfs_;
};

TEST_P(ClusterOpsTest, CreateStoresReplicatedData) {
  OpResult result = dfs_->Execute(MakeCreate("/f", 10 * kGiB));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(dfs_->tree().file_count(), 1u);
  // Replication doubles the stored bytes.
  EXPECT_EQ(dfs_->TotalUsedBytes(), 2 * 10 * kGiB);
  // Chunks respect the stripe unit.
  const FileLayout& layout = dfs_->file_layouts().begin()->second;
  for (const ChunkPlacement& chunk : layout.chunks) {
    EXPECT_LE(chunk.bytes, kChunkSize);
    EXPECT_EQ(chunk.replicas.size(), static_cast<size_t>(kReplication));
  }
}

TEST_P(ClusterOpsTest, CreateDuplicateFails) {
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", kMiB)).status.ok());
  EXPECT_EQ(dfs_->Execute(MakeCreate("/f", kMiB)).status.code(),
            StatusCode::kAlreadyExists);
}

TEST_P(ClusterOpsTest, CreateBeyondCapacityFails) {
  uint64_t huge = dfs_->TotalCapacityBytes();  // x2 replication cannot fit
  OpResult result = dfs_->Execute(MakeCreate("/big", huge));
  EXPECT_EQ(result.status.code(), StatusCode::kOutOfSpace);
  // Rollback: no data may remain allocated (gluster may leave metadata-sized
  // linkfiles on full hashed bricks — that is real DHT behavior).
  EXPECT_LE(dfs_->TotalUsedBytes(), 64 * kKiB);
  EXPECT_EQ(dfs_->tree().file_count(), 0u);
}

// Requests far beyond the fleet, up to 2^64 - 1 bytes, fail in placement:
// the chunk count is 64-bit, and the chunk reservation stops at what the
// serving bricks could hold. A create leaves no file, an append keeps what
// fit, and the accounting stays exact.
TEST_P(ClusterOpsTest, HugeCreatesAndAppendsRunOutOfSpace) {
  for (uint64_t size : {uint64_t{1} << 60, uint64_t{1} << 63, UINT64_MAX}) {
    OpResult result = dfs_->Execute(MakeCreate("/f", size));
    EXPECT_EQ(result.status.code(), StatusCode::kOutOfSpace) << size;
    EXPECT_FALSE(dfs_->tree().IsFile("/f")) << size;
    Status audit = AuditCluster(*dfs_);
    EXPECT_TRUE(audit.ok()) << size << ": " << audit.ToString();
  }
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", kGiB)).status.ok());
  OpResult append = dfs_->Execute(MakeOp(OpKind::kAppend, "/f", uint64_t{1} << 60));
  EXPECT_EQ(append.status.code(), StatusCode::kOutOfSpace);
  EXPECT_GT(FileSize(*dfs_, "/f"), kGiB);
  Status audit = AuditCluster(*dfs_);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// GeoFS caps a file at max_file_size (EFBIG). The cap compares the grown
// size, so an append whose sum would pass 2^64 is refused too, not wrapped
// to a small size and admitted.
TEST(GeoFlavor, AppendsPastTheFileSizeCapAreRefused) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGeo, 99);
  ASSERT_GT(dfs->config().max_file_size, kGiB);
  ASSERT_TRUE(dfs->Execute(MakeCreate("/f", kGiB)).status.ok());
  for (uint64_t size : {dfs->config().max_file_size, UINT64_MAX}) {
    OpResult result = dfs->Execute(MakeOp(OpKind::kAppend, "/f", size));
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument) << size;
    EXPECT_EQ(FileSize(*dfs, "/f"), kGiB) << size;
  }
}

TEST_P(ClusterOpsTest, DeleteFreesBytes) {
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", kGiB)).status.ok());
  ASSERT_TRUE(dfs_->Execute(MakeOp(OpKind::kDelete, "/f")).status.ok());
  EXPECT_EQ(dfs_->TotalUsedBytes(), 0u);
  EXPECT_EQ(dfs_->Execute(MakeOp(OpKind::kDelete, "/f")).status.code(),
            StatusCode::kNotFound);
}

TEST_P(ClusterOpsTest, AppendGrowsFile) {
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", kGiB)).status.ok());
  OpResult result = dfs_->Execute(MakeOp(OpKind::kAppend, "/f", 3 * kGiB));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(FileSize(*dfs_, "/f"), 4 * kGiB);
  EXPECT_EQ(dfs_->TotalUsedBytes(), 2 * 4 * kGiB);
}

TEST_P(ClusterOpsTest, OverwriteReplacesContents) {
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", 4 * kGiB)).status.ok());
  OpResult result = dfs_->Execute(MakeOp(OpKind::kOverwrite, "/f", kGiB));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(FileSize(*dfs_, "/f"), kGiB);
  EXPECT_EQ(dfs_->TotalUsedBytes(), 2 * kGiB);
}

TEST_P(ClusterOpsTest, TruncateOverwriteBehavesLikeOverwrite) {
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", 2 * kGiB)).status.ok());
  ASSERT_TRUE(dfs_->Execute(MakeOp(OpKind::kTruncateOverwrite, "/f", 512 * kMiB))
                  .status.ok());
  EXPECT_EQ(FileSize(*dfs_, "/f"), 512 * kMiB);
}

TEST_P(ClusterOpsTest, OpenReadsAndCountsIo) {
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", kGiB)).status.ok());
  uint64_t reads_before = 0;
  for (const LoadSample& sample : dfs_->SampleLoad()) {
    reads_before += sample.read_ios;
  }
  ASSERT_TRUE(dfs_->Execute(MakeOp(OpKind::kOpen, "/f")).status.ok());
  uint64_t reads_after = 0;
  for (const LoadSample& sample : dfs_->SampleLoad()) {
    reads_after += sample.read_ios;
  }
  EXPECT_GT(reads_after, reads_before);
}

TEST_P(ClusterOpsTest, RenamePreservesData) {
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", kGiB)).status.ok());
  Operation rename = MakeOp(OpKind::kRename, "/f");
  rename.path2 = "/g";
  ASSERT_TRUE(dfs_->Execute(rename).status.ok());
  EXPECT_TRUE(dfs_->tree().IsFile("/g"));
  // Allow for a gluster DHT linkfile on the new hashed brick.
  EXPECT_GE(dfs_->TotalUsedBytes(), 2 * kGiB);
  EXPECT_LE(dfs_->TotalUsedBytes(), 2 * kGiB + 64 * kKiB);
}

TEST_P(ClusterOpsTest, AddAndRemoveStorageNode) {
  size_t before = dfs_->ListStorageNodes().size();
  ASSERT_TRUE(dfs_->Execute(MakeOp(OpKind::kAddStorageNode)).status.ok());
  EXPECT_EQ(dfs_->ListStorageNodes().size(), before + 1);

  Operation remove = MakeOp(OpKind::kRemoveStorageNode);
  remove.node = dfs_->ListStorageNodes().back();
  ASSERT_TRUE(dfs_->Execute(remove).status.ok());
  EXPECT_EQ(dfs_->ListStorageNodes().size(), before);
}

TEST_P(ClusterOpsTest, RemoveStorageNodeRespectsMinimum) {
  // Keep removing until the system refuses; the refusal must leave at least
  // the configured node minimum AND enough bricks for replica-2 leveling.
  StatusCode last = StatusCode::kOk;
  for (int i = 0; i < 32 && last == StatusCode::kOk; ++i) {
    Operation remove = MakeOp(OpKind::kRemoveStorageNode);
    remove.node = dfs_->ListStorageNodes().back();
    last = dfs_->Execute(remove).status.code();
  }
  EXPECT_EQ(last, StatusCode::kFailedPrecondition);
  EXPECT_GE(static_cast<int>(dfs_->ListStorageNodes().size()),
            dfs_->config().min_storage_nodes);
  EXPECT_GE(dfs_->ListBricks().size(), 4u);
}

TEST_P(ClusterOpsTest, RemovedNodeDataIsReRecovered) {
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", 8 * kGiB)).status.ok());
  Operation remove = MakeOp(OpKind::kRemoveStorageNode);
  remove.node = dfs_->file_layouts().begin()->second.chunks.front().replicas.front();
  // The replica id is a brick; resolve its node.
  remove.node = dfs_->FindBrick(static_cast<BrickId>(remove.node))->node;
  ASSERT_TRUE(dfs_->Execute(remove).status.ok());
  // Drain recovery and verify every chunk still has 2 live replicas.
  for (int i = 0; i < 1000 && !dfs_->RebalanceDone(); ++i) {
    dfs_->AdvanceTime(Seconds(10));
  }
  for (const auto& [file, layout] : dfs_->file_layouts()) {
    (void)file;
    for (const ChunkPlacement& chunk : layout.chunks) {
      int live = 0;
      for (BrickId b : chunk.replicas) {
        const Brick* brick = dfs_->FindBrick(b);
        const StorageNode* node =
            brick != nullptr ? dfs_->FindStorageNode(brick->node) : nullptr;
        if (brick != nullptr && brick->online && node != nullptr && node->Serving()) {
          ++live;
        }
      }
      EXPECT_EQ(live, 2) << "chunk lost redundancy after node removal";
    }
  }
}

TEST_P(ClusterOpsTest, AddRemoveMetaNode) {
  size_t before = dfs_->ListMetaNodes().size();
  ASSERT_TRUE(dfs_->Execute(MakeOp(OpKind::kAddMetaNode)).status.ok());
  EXPECT_EQ(dfs_->ListMetaNodes().size(), before + 1);
  Operation remove = MakeOp(OpKind::kRemoveMetaNode);
  remove.node = dfs_->ListMetaNodes().back();
  ASSERT_TRUE(dfs_->Execute(remove).status.ok());
  EXPECT_EQ(dfs_->ListMetaNodes().size(), before);
}

TEST_P(ClusterOpsTest, VolumeLifecycle) {
  size_t bricks_before = dfs_->ListBricks().size();
  Operation add = MakeOp(OpKind::kAddVolume);
  add.size = 200 * kGiB;
  ASSERT_TRUE(dfs_->Execute(add).status.ok());
  ASSERT_EQ(dfs_->ListBricks().size(), bricks_before + 1);
  BrickId brick = dfs_->ListBricks().back();

  Operation expand = MakeOp(OpKind::kExpandVolume);
  expand.brick = brick;
  expand.size = 100 * kGiB;
  uint64_t cap_before = dfs_->FindBrick(brick)->capacity_bytes;
  ASSERT_TRUE(dfs_->Execute(expand).status.ok());
  EXPECT_EQ(dfs_->FindBrick(brick)->capacity_bytes, cap_before + 100 * kGiB);

  Operation reduce = MakeOp(OpKind::kReduceVolume);
  reduce.brick = brick;
  reduce.size = 50 * kGiB;
  ASSERT_TRUE(dfs_->Execute(reduce).status.ok());
  EXPECT_EQ(dfs_->FindBrick(brick)->capacity_bytes, cap_before + 50 * kGiB);

  Operation remove = MakeOp(OpKind::kRemoveVolume);
  remove.brick = brick;
  ASSERT_TRUE(dfs_->Execute(remove).status.ok());
  // The brick drains and eventually disappears from the serving list.
  for (int i = 0; i < 200 && !dfs_->RebalanceDone(); ++i) {
    dfs_->AdvanceTime(Seconds(10));
  }
  for (BrickId id : dfs_->ListBricks()) {
    EXPECT_NE(id, brick);
  }
}

TEST_P(ClusterOpsTest, ExpandVolumeIsCapped) {
  BrickId brick = dfs_->ListBricks().front();
  for (int i = 0; i < 10; ++i) {
    Operation expand = MakeOp(OpKind::kExpandVolume);
    expand.brick = brick;
    expand.size = kBrickCapacity;
    (void)dfs_->Execute(expand);
  }
  EXPECT_LE(dfs_->FindBrick(brick)->capacity_bytes, 2 * kBrickCapacity);
}

TEST_P(ClusterOpsTest, ReduceVolumeRefusesToStrandData) {
  // Fill the cluster so the remaining bricks cannot absorb an evacuation.
  uint64_t fill = dfs_->TotalCapacityBytes() * 2 / 5;
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/fill", fill)).status.ok());
  BrickId target = dfs_->ListBricks().front();
  for (int i = 0; i < 40; ++i) {
    Operation reduce = MakeOp(OpKind::kReduceVolume);
    reduce.brick = target;
    reduce.size = kBrickCapacity;
    OpResult result = dfs_->Execute(reduce);
    if (!result.status.ok()) {
      break;
    }
  }
  const Brick* brick = dfs_->FindBrick(target);
  ASSERT_NE(brick, nullptr);
  // Reduction may never leave a brick with more data than capacity for long:
  // drain and check.
  for (int i = 0; i < 1000 && !dfs_->RebalanceDone(); ++i) {
    dfs_->AdvanceTime(Seconds(10));
  }
  EXPECT_LE(dfs_->FindBrick(target)->used_bytes,
            dfs_->FindBrick(target)->capacity_bytes);
}

TEST_P(ClusterOpsTest, UnavailableWithoutMetaNodes) {
  // Remove metadata nodes down to the minimum, then crash the survivors.
  std::vector<NodeId> mns = dfs_->ListMetaNodes();
  for (NodeId mn : mns) {
    dfs_->CrashNode(mn);
  }
  OpResult result = dfs_->Execute(MakeCreate("/f", kMiB));
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST_P(ClusterOpsTest, ResetRestoresInitialState) {
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", kGiB)).status.ok());
  ASSERT_TRUE(dfs_->Execute(MakeOp(OpKind::kAddStorageNode)).status.ok());
  dfs_->ResetToInitial();
  EXPECT_EQ(dfs_->tree().file_count(), 0u);
  EXPECT_EQ(dfs_->TotalUsedBytes(), 0u);
  EXPECT_EQ(static_cast<int>(dfs_->ListStorageNodes().size()),
            dfs_->config().initial_storage_nodes);
  EXPECT_EQ(dfs_->completed_rebalance_rounds(), 0);
}

TEST_P(ClusterOpsTest, TimeAdvancesWithOperations) {
  SimTime before = dfs_->Now();
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", kGiB)).status.ok());
  EXPECT_GT(dfs_->Now(), before);
}

TEST_P(ClusterOpsTest, FreeSpaceShrinksWithWrites) {
  uint64_t before = dfs_->FreeSpaceBytes();
  ASSERT_TRUE(dfs_->Execute(MakeCreate("/f", 10 * kGiB)).status.ok());
  EXPECT_EQ(dfs_->FreeSpaceBytes(), before - 20 * kGiB);
}

INSTANTIATE_TEST_SUITE_P(AllFlavors, ClusterOpsTest,
                         ::testing::Values(Flavor::kHdfs, Flavor::kCeph,
                                           Flavor::kGluster, Flavor::kLeo),
                         [](const ::testing::TestParamInfo<Flavor>& row) {
                           return std::string(FlavorName(row.param));
                         });

// ---- flavor-specific behavior ----

// Creates 64 half-brick files, so placements start missing their full
// hashed bricks; returns how many creates succeeded.
int FillPastTheHashedBricks(GlusterLikeCluster& dfs) {
  int created = 0;
  for (int i = 0; i < 64; ++i) {
    if (dfs.Execute(MakeCreate("/f" + std::to_string(i), kBrickCapacity / 2)).status.ok()) {
      ++created;
    }
  }
  return created;
}

TEST(GlusterFlavor, LinkfilesAppearWhenHashedBrickIsFull) {
  GlusterLikeCluster dfs;
  EXPECT_GT(FillPastTheHashedBricks(dfs), 4);
  EXPECT_GT(dfs.live_linkfiles(), 0u) << "full hashed bricks must leave linkfiles";
}

// The census counts the linkfiles on the bricks, so a reset, which rebuilds
// the bricks empty, leaves none, and a later round finds none to reclaim.
TEST(GlusterFlavor, LinkfileCensusIsEmptyAfterReset) {
  GlusterLikeCluster dfs;
  FillPastTheHashedBricks(dfs);
  ASSERT_GT(dfs.live_linkfiles(), 0u);
  dfs.ResetToInitial();
  EXPECT_EQ(dfs.live_linkfiles(), 0u);
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  ASSERT_TRUE(dfs.RebalanceDone());
  ASSERT_EQ(dfs.completed_rebalance_rounds(), 1);
  EXPECT_EQ(dfs.live_linkfiles(), 0u);
}

TEST(GlusterFlavor, RenameAcrossRangesLeavesLinkfile) {
  GlusterLikeCluster dfs;
  // Find a name whose rename target hashes to a different brick.
  Operation create;
  create.kind = OpKind::kCreate;
  create.path = "/src";
  create.size = kGiB;
  ASSERT_TRUE(dfs.Execute(create).status.ok());
  uint32_t links_before = dfs.live_linkfiles();
  for (int i = 0; i < 32; ++i) {
    std::string target = "/dst" + std::to_string(i);
    if (dfs.layout().Locate(DhtLayout::HashName(target)) !=
        dfs.layout().Locate(DhtLayout::HashName("/src"))) {
      Operation rename;
      rename.kind = OpKind::kRename;
      rename.path = "/src";
      rename.path2 = target;
      ASSERT_TRUE(dfs.Execute(rename).status.ok());
      break;
    }
  }
  EXPECT_GT(dfs.live_linkfiles(), links_before);
}

TEST(HdfsFlavor, ClusterMapTracksMembership) {
  HdfsLikeCluster dfs;
  size_t before = dfs.cluster_map().size();
  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(dfs.Execute(add).status.ok());
  EXPECT_EQ(dfs.cluster_map().size(), before + 1);
}

TEST(HdfsFlavor, PlacementPrefersLeastLoaded) {
  HdfsLikeCluster dfs;
  // Pre-load one brick heavily via direct skew, then check new data avoids it.
  BrickId heavy = dfs.ListBricks().front();
  Operation big;
  big.kind = OpKind::kCreate;
  big.path = "/seed";
  big.size = 100 * kGiB;
  ASSERT_TRUE(dfs.Execute(big).status.ok());
  // Write many small files; the heaviest brick should receive the fewest.
  for (int i = 0; i < 40; ++i) {
    Operation op;
    op.kind = OpKind::kCreate;
    op.path = "/s" + std::to_string(i);
    op.size = kGiB;
    ASSERT_TRUE(dfs.Execute(op).status.ok());
  }
  double heaviest = dfs.FindBrick(heavy)->UsedFraction();
  double max_other = 0;
  for (BrickId id : dfs.ListBricks()) {
    if (id != heavy) {
      max_other = std::max(max_other, dfs.FindBrick(id)->UsedFraction());
    }
  }
  // Weighted-tree placement levels the cluster: no other brick may exceed the
  // pre-loaded one by much.
  EXPECT_LE(max_other, heaviest + 0.05);
}

TEST(CephFlavor, CrushWeightsFollowCapacity) {
  CephLikeCluster dfs;
  Operation add;
  add.kind = OpKind::kAddVolume;
  add.size = 2 * kBrickCapacity;
  ASSERT_TRUE(dfs.Execute(add).status.ok());
  BrickId big = dfs.ListBricks().back();
  EXPECT_GT(dfs.crush().TargetWeight(big),
            dfs.crush().TargetWeight(dfs.ListBricks().front()) * 1.5);
}

TEST(LeoFlavor, RingTracksServingBricks) {
  LeoLikeCluster dfs;
  EXPECT_EQ(dfs.ring().target_count(), dfs.ListBricks().size());
  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(dfs.Execute(add).status.ok());
  EXPECT_EQ(dfs.ring().target_count(), dfs.ListBricks().size());
}

}  // namespace
}  // namespace themis
