// Tests for the metadata-consistency extension (§7 "more bug types"):
// namespace epochs, anti-entropy, and the desync fault effect.

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/injector.h"

namespace themis {
namespace {

Operation Create(const std::string& path, uint64_t size) {
  Operation op;
  op.kind = OpKind::kCreate;
  op.path = path;
  op.size = size;
  return op;
}

TEST(MetadataEpoch, MutationsAdvanceIt) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 81);
  EXPECT_EQ(dfs->namespace_epoch(), 0u);
  ASSERT_TRUE(dfs->Execute(Create("/a", kMiB)).status.ok());
  EXPECT_EQ(dfs->namespace_epoch(), 1u);
  Operation open;
  open.kind = OpKind::kOpen;
  open.path = "/a";
  ASSERT_TRUE(dfs->Execute(open).status.ok());
  EXPECT_EQ(dfs->namespace_epoch(), 1u) << "reads do not mutate the namespace";
  Operation del;
  del.kind = OpKind::kDelete;
  del.path = "/a";
  ASSERT_TRUE(dfs->Execute(del).status.ok());
  EXPECT_EQ(dfs->namespace_epoch(), 2u);
}

TEST(MetadataEpoch, FailedMutationsDoNotAdvance) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 82);
  Operation del;
  del.kind = OpKind::kDelete;
  del.path = "/missing";
  ASSERT_FALSE(dfs->Execute(del).status.ok());
  EXPECT_EQ(dfs->namespace_epoch(), 0u);
}

TEST(MetadataEpoch, HealthyReplicasStayInSync) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 83);
  for (int i = 0; i < 50; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kMiB));
  }
  for (const auto& [id, node] : dfs->meta_nodes()) {
    (void)id;
    if (node.Serving()) {
      EXPECT_EQ(node.synced_epoch, dfs->namespace_epoch());
    }
  }
}

TEST(MetadataEpoch, DesyncFaultFreezesTheVictimReplica) {
  FaultSpec spec;
  spec.id = "mds-desync";
  spec.platform = Flavor::kCeph;
  spec.effect = EffectKind::kMetadataDesync;
  spec.trigger.min_window_ops = 1;
  spec.trigger.probability = 1.0;
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kCeph, 85);
  FaultInjector injector({spec}, 85);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 200; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kMiB));
  }
  ASSERT_TRUE(injector.AnyActive());
  NodeId victim = kInvalidNode;
  for (const FaultRuntime& fault : injector.faults()) {
    if (fault.active) victim = fault.victim_node;
  }
  // The victim stops applying namespace updates; its peers keep up.
  for (const auto& [id, node] : dfs->meta_nodes()) {
    if (!node.Serving()) continue;
    if (id == victim) {
      EXPECT_GT(dfs->namespace_epoch() - node.synced_epoch, 64u);
    } else {
      EXPECT_EQ(node.synced_epoch, dfs->namespace_epoch());
    }
  }
}

TEST(MetadataEpoch, ResetClearsEpochs) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 87);
  (void)dfs->Execute(Create("/a", kMiB));
  ASSERT_GT(dfs->namespace_epoch(), 0u);
  dfs->ResetToInitial();
  EXPECT_EQ(dfs->namespace_epoch(), 0u);
  for (const auto& [id, node] : dfs->meta_nodes()) {
    (void)id;
    EXPECT_EQ(node.synced_epoch, 0u);
  }
}

}  // namespace
}  // namespace themis
