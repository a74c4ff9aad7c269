// Tests for the metadata tier: round-robin request routing over the serving
// meta nodes, and the serving list across crashes, removals, a snapshot
// restore (which rebuilds the list from the node map) and a restart.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/snapshot_io.h"
#include "src/dfs/flavors/factory.h"

namespace themis {
namespace {

Operation PathOp(OpKind kind, const std::string& path, uint64_t size = 0) {
  Operation op;
  op.kind = kind;
  op.path = path;
  op.size = size;
  return op;
}

TEST(MetadataTier, RoundRobinRoutingKeepsRequestsEven) {
  for (Flavor flavor : {Flavor::kHdfs, Flavor::kCeph, Flavor::kGluster, Flavor::kLeo,
                        Flavor::kGeo}) {
    SCOPED_TRACE(std::string(FlavorName(flavor)));
    std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, 81, 0, 3);
    // Successful and failing client ops alike are routed first.
    for (int i = 0; i < 100; ++i) {
      const std::string path = "/f" + std::to_string(i % 37);
      (void)dfs->Execute(PathOp(OpKind::kCreate, path, kMiB));
      (void)dfs->Execute(PathOp(i % 3 == 0 ? OpKind::kDelete : OpKind::kOpen, path));
      (void)dfs->Execute(PathOp(OpKind::kMkdir, "/d" + std::to_string(i % 11)));
    }
    const std::vector<NodeId> serving = dfs->ListMetaNodes();
    ASSERT_EQ(serving.size(), 3u);
    uint64_t least = UINT64_MAX;
    uint64_t most = 0;
    uint64_t total = 0;
    for (NodeId id : serving) {
      const uint64_t requests = dfs->FindMetaNode(id)->load.requests;
      least = std::min(least, requests);
      most = std::max(most, requests);
      total += requests;
    }
    EXPECT_LE(most - least, 1u);
    EXPECT_EQ(total, dfs->total_ops_executed());
  }
}

TEST(MetadataTier, RestoreRebuildsTheServingListAndRestartReaddsTheCrashedNode) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 83, 0, 3);
  const std::vector<NodeId> initial = dfs->ListMetaNodes();
  ASSERT_EQ(initial.size(), 3u);
  const NodeId crashed = initial[0];
  const NodeId removed = initial[1];
  const NodeId survivor = initial[2];
  dfs->CrashNode(crashed);
  Operation remove;
  remove.kind = OpKind::kRemoveMetaNode;
  remove.node = removed;
  ASSERT_TRUE(dfs->Execute(remove).status.ok());
  ASSERT_EQ(dfs->ListMetaNodes(), std::vector<NodeId>{survivor});

  SnapshotWriter writer;
  dfs->SaveState(writer);
  std::unique_ptr<DfsCluster> restored = MakeCluster(Flavor::kGluster, 83, 0, 3);
  SnapshotReader reader(writer.buffer());
  ASSERT_TRUE(restored->RestoreState(reader).ok());
  EXPECT_EQ(restored->ListMetaNodes(), std::vector<NodeId>{survivor});
  // The monitor still samples the crashed node, not the removed one.
  std::vector<NodeId> sampled;
  for (const LoadSample& sample : restored->SampleLoad()) {
    if (!sample.is_storage) sampled.push_back(sample.node);
  }
  EXPECT_EQ(sampled, (std::vector<NodeId>{crashed, survivor}));

  // A restart brings the crashed node back; the removed one stays out.
  restored->RestartNode(crashed);
  restored->RestartNode(removed);
  EXPECT_EQ(restored->ListMetaNodes(), (std::vector<NodeId>{crashed, survivor}));
  dfs->RestartNode(crashed);
  SnapshotWriter live;
  dfs->SaveState(live);
  SnapshotWriter again;
  restored->SaveState(again);
  EXPECT_EQ(live.buffer(), again.buffer());
}

}  // namespace
}  // namespace themis
