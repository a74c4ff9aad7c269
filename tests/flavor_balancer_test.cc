// Flavor-specific balancer behaviors: DHT migrate-data, ring takeover,
// CRUSH/upmap response, weighted-tree leveling — plus the shared rebalance
// API semantics and the shared rebalance planner's contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/snapshot_io.h"
#include "src/dfs/flavors/ceph_like.h"
#include "src/dfs/flavors/factory.h"
#include "src/dfs/flavors/geo_like.h"
#include "src/dfs/flavors/gluster_like.h"
#include "src/dfs/flavors/hdfs_like.h"
#include "src/dfs/flavors/leo_like.h"

namespace themis {
namespace {

Operation Create(const std::string& path, uint64_t size) {
  Operation op;
  op.kind = OpKind::kCreate;
  op.path = path;
  op.size = size;
  return op;
}

void Drain(DfsCluster& dfs) {
  for (int i = 0; i < 5000 && !dfs.RebalanceDone(); ++i) {
    dfs.AdvanceTime(Seconds(10));
  }
  ASSERT_TRUE(dfs.RebalanceDone());
}

TEST(RebalanceApi, IdempotentWhenBalanced) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 71);
  EXPECT_TRUE(dfs->RebalanceDone());
  EXPECT_TRUE(dfs->TriggerRebalance().ok());
  EXPECT_TRUE(dfs->RebalanceDone()) << "empty plan completes immediately";
  EXPECT_EQ(dfs->completed_rebalance_rounds(), 1);
}

TEST(RebalanceApi, BackgroundMigrationTakesTime) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 72);
  // Write data, then shrink the cluster's balance by hand via volume churn.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(dfs->Execute(Create("/f" + std::to_string(i), 10 * kGiB)).status.ok());
  }
  // Skew: move bytes onto one brick directly.
  BrickId victim = dfs->ListBricks().front();
  for (BrickId donor : dfs->ListBricks()) {
    if (donor != victim) {
      dfs->SkewBytes(donor, victim, 40 * kGiB);
    }
  }
  ASSERT_GT(dfs->StorageImbalance(), dfs->config().native_threshold);
  ASSERT_TRUE(dfs->TriggerRebalance().ok());
  EXPECT_FALSE(dfs->RebalanceDone()) << "a non-trivial plan must take time";
  Drain(*dfs);
  EXPECT_LE(dfs->StorageImbalance(), dfs->config().native_threshold + 0.03);
}

TEST(GlusterBalancer, MigrateDataFollowsLayoutAfterExpansion) {
  GlusterLikeCluster dfs;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 8 * kGiB)).status.ok());
  }
  // Adding a storage node re-runs fix-layout; the rebalance must move data
  // whose hash now maps to the new brick onto it.
  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(dfs.Execute(add).status.ok());
  BrickId fresh = dfs.ListBricks().back();
  ASSERT_EQ(dfs.FindBrick(fresh)->used_bytes, 0u);
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  Drain(dfs);
  EXPECT_GT(dfs.FindBrick(fresh)->used_bytes, 0u)
      << "fix-layout + migrate-data must populate the new brick";
  // And the moved files must now sit on their hashed bricks.
  int misplaced = 0;
  for (const auto& [file, layout] : dfs.file_layouts()) {
    std::string path = dfs.tree().PathOf(file);
    for (uint32_t i = 0; i < layout.chunks.size(); ++i) {
      if (layout.chunks[i].replicas.empty()) {
        continue;
      }
      uint32_t hash = DhtLayout::HashName(path) + i * 0x9e3779b9u;
      BrickId expected = dfs.layout().Locate(hash);
      if (!layout.chunks[i].HasReplicaOn(expected)) {
        ++misplaced;
      }
    }
  }
  // min-free-disk may legitimately leave a few in place; most must match.
  EXPECT_LT(misplaced, 20);
}

TEST(GlusterBalancer, RebalanceReconcilesLinkfiles) {
  GlusterLikeCluster dfs;
  ASSERT_TRUE(dfs.Execute(Create("/src", kGiB)).status.ok());
  // Force linkfiles via renames across ranges.
  int renames = 0;
  for (int i = 0; i < 64 && dfs.live_linkfiles() == 0; ++i) {
    Operation rename;
    rename.kind = OpKind::kRename;
    rename.path = renames == 0 ? "/src" : "/dst" + std::to_string(renames - 1);
    rename.path2 = "/dst" + std::to_string(renames);
    ASSERT_TRUE(dfs.Execute(rename).status.ok());
    ++renames;
  }
  ASSERT_GT(dfs.live_linkfiles(), 0u);
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  Drain(dfs);
  EXPECT_EQ(dfs.live_linkfiles(), 0u) << "a completed rebalance reclaims linkfiles";
}

TEST(LeoBalancer, RingChangeMovesAffectedObjects) {
  LeoLikeCluster dfs;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 8 * kGiB)).status.ok());
  }
  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(dfs.Execute(add).status.ok());
  BrickId fresh = dfs.ListBricks().back();
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  Drain(dfs);
  EXPECT_GT(dfs.FindBrick(fresh)->used_bytes, 0u)
      << "the ring's new arcs must receive their objects";
}

TEST(CephBalancer, UpmapsAppearUnderSkew) {
  CephLikeCluster dfs;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 8 * kGiB)).status.ok());
  }
  BrickId victim = dfs.ListBricks().front();
  for (BrickId donor : dfs.ListBricks()) {
    if (donor != victim) {
      dfs.SkewBytes(donor, victim, 60 * kGiB);
    }
  }
  ASSERT_GT(dfs.StorageImbalance(), dfs.config().native_threshold);
  size_t upmaps_before = dfs.crush().upmap_count();
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  Drain(dfs);
  EXPECT_GT(dfs.crush().upmap_count(), upmaps_before)
      << "the upmap balancer pins PGs away from the overfull device";
  EXPECT_LE(dfs.StorageImbalance(), dfs.config().native_threshold + 0.03);
}

TEST(HdfsBalancer, LevelsWithinNativeThreshold) {
  HdfsLikeCluster dfs;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 6 * kGiB)).status.ok());
  }
  BrickId victim = dfs.ListBricks().front();
  for (BrickId donor : dfs.ListBricks()) {
    if (donor != victim) {
      dfs.SkewBytes(donor, victim, 30 * kGiB);
    }
  }
  ASSERT_GT(dfs.StorageImbalance(), 0.10);
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  Drain(dfs);
  EXPECT_LE(dfs.StorageImbalance(), 0.10 + 0.03)
      << "the HDFS balancer's contract is its 10% threshold";
}

TEST(PeriodicBalancer, FiresWithoutExplicitTrigger) {
  // The periodic discipline must notice imbalance on its own.
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 77);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(dfs->Execute(Create("/f" + std::to_string(i), 10 * kGiB)).status.ok());
  }
  BrickId victim = dfs->ListBricks().front();
  for (BrickId donor : dfs->ListBricks()) {
    if (donor != victim) {
      dfs->SkewBytes(donor, victim, 50 * kGiB);
    }
  }
  ASSERT_GT(dfs->StorageImbalance(), dfs->config().native_threshold);
  int rounds_before = dfs->completed_rebalance_rounds();
  // Idle time beyond the balancer period; no client activity at all.
  dfs->AdvanceTime(dfs->config().balancer_period * 4);
  EXPECT_GT(dfs->completed_rebalance_rounds(), rounds_before);
  EXPECT_LE(dfs->StorageImbalance(), dfs->config().native_threshold + 0.03);
}

TEST(FlavorDefaults, MatchPaperThresholds) {
  EXPECT_DOUBLE_EQ(HdfsLikeCluster::DefaultConfig().native_threshold, 0.10);
  EXPECT_DOUBLE_EQ(GlusterLikeCluster::DefaultConfig().native_threshold, 0.20);
  EXPECT_LT(CephLikeCluster::DefaultConfig().native_threshold, 0.15);
  EXPECT_EQ(HdfsLikeCluster::DefaultConfig().initial_storage_nodes +
                HdfsLikeCluster::DefaultConfig().initial_meta_nodes,
            10)
      << "the paper's clusters have 10 nodes";
}

TEST(GeoBalancer, ReplicasSpreadAcrossSites) {
  GeoLikeCluster dfs;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 4 * kGiB)).status.ok());
  }
  // Every replicated chunk lands on bricks whose nodes sit on distinct
  // sites: the within-group pick runs a distinct-site pass first and a
  // fresh cluster never needs the capacity-constrained fill pass.
  size_t replicated = 0;
  for (const auto& [file, layout] : dfs.file_layouts()) {
    (void)file;
    for (const ChunkPlacement& chunk : layout.chunks) {
      if (chunk.replicas.size() < 2) continue;
      ++replicated;
      std::set<uint16_t> sites;
      for (BrickId brick : chunk.replicas) {
        const Brick* b = dfs.FindBrick(brick);
        ASSERT_NE(b, nullptr);
        ASSERT_TRUE(dfs.engine().Contains(b->node));
        sites.insert(dfs.engine().TagOf(b->node).site);
      }
      EXPECT_GE(sites.size(), 2u) << "chunk replicas co-located on one site";
    }
  }
  EXPECT_GT(replicated, 0u);
}

TEST(GeoBalancer, SiteFailoverDrainsTheHotSite) {
  // A compact fleet so a hand-made skew dominates total capacity: 12 nodes
  // over 3 sites in one scheduling group, standard bricks (heterogeneous
  // 1x/2x/4x on top), with files and skews sized to them.
  ClusterConfig config = GeoLikeCluster::DefaultConfig();
  config.initial_storage_nodes = 12;
  config.rng_seed = 7;
  GeoLikeCluster dfs(config);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 60 * kGiB)).status.ok());
  }
  // Pile bytes from the other sites onto site 0's bricks.
  std::vector<BrickId> hot, cold;
  for (BrickId id : dfs.ListBricks()) {
    const Brick* brick = dfs.FindBrick(id);
    if (dfs.engine().TagOf(brick->node).site == 0) {
      hot.push_back(id);
    } else {
      cold.push_back(id);
    }
  }
  ASSERT_FALSE(hot.empty());
  ASSERT_FALSE(cold.empty());
  for (size_t i = 0; i < cold.size(); ++i) {
    dfs.SkewBytes(cold[i], hot[i % hot.size()], 240 * kGiB);
  }

  auto site_gap = [&]() {
    double hottest = 0.0, coldest = 1.0;
    for (const auto& [used, cap] : dfs.PerSiteUsedCap()) {
      if (cap == 0) continue;
      double frac = static_cast<double>(used) / static_cast<double>(cap);
      hottest = std::max(hottest, frac);
      coldest = std::min(coldest, frac);
    }
    return hottest - coldest;
  };
  double before = site_gap();
  ASSERT_GT(before, dfs.config().native_threshold * 0.5)
      << "skew must exceed the site-failover trigger";
  // Each round's budget is half the remaining gap, so convergence takes a
  // few rounds — exactly how a periodic balancer runs in production.
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(dfs.TriggerRebalance().ok());
    Drain(dfs);
  }
  EXPECT_LT(site_gap(), before) << "site failover must narrow the gap";
  EXPECT_LE(site_gap(), dfs.config().native_threshold)
      << "sites must settle inside the flavor threshold";
}

// Exposes a flavor's protected rebalance planner and home function.
template <typename Cluster>
class PlannerProbe : public Cluster {
 public:
  MigrationPlan Plan() { return this->PlanRebalance(); }
  BrickId Home(FileId file, uint32_t chunk_index) const {
    return this->HomeBrick(file, chunk_index, nullptr);
  }
  // The chunk's home through its memo (filled when stale).
  BrickId MemoHome(FileId file, uint32_t chunk_index) const {
    return this->MemoizedHome(file, chunk_index, *this->FindChunk(file, chunk_index), nullptr);
  }
  double Tolerance() const { return this->BalanceTolerance(); }
};

// The planner's contract on a hash-placed flavor. Data skewed onto one brick
// gives the leveler a donor that also holds chunks at home, and a new
// storage node moves homes, so one plan carries homing and leveling moves.
template <typename Cluster>
void CheckPlannerContract(bool pairs_unlinks) {
  PlannerProbe<Cluster> dfs;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 8 * kGiB)).status.ok());
  }
  BrickId victim = dfs.ListBricks().front();
  for (BrickId donor : dfs.ListBricks()) {
    if (donor != victim) {
      dfs.SkewBytes(donor, victim, 40 * kGiB);
    }
  }
  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(dfs.Execute(add).status.ok());
  size_t at_home_on_victim = 0;
  for (const auto& [file, chunk_index] : dfs.ChunksOnBrickRef(victim)) {
    at_home_on_victim += dfs.Home(file, chunk_index) == victim ? 1 : 0;
  }
  ASSERT_GT(at_home_on_victim, 0u) << "the donor must hold chunks the leveler may not take";

  const double fleet = static_cast<double>(dfs.TotalServingUsedBytes()) /
                       static_cast<double>(dfs.TotalCapacityBytes());
  const MigrationPlan plan = dfs.Plan();
  size_t homing = 0;
  size_t leveling = 0;
  size_t unlinks = 0;
  std::map<BrickId, uint64_t> received;
  for (size_t k = 0; k < plan.size(); ++k) {
    const ChunkMove& move = plan[k];
    if (move.is_linkfile) {
      ++unlinks;
      continue;
    }
    received[move.to] += move.bytes;
    const ChunkPlacement& chunk = dfs.file_layouts().at(move.file).chunks[move.chunk_index];
    BrickId home = dfs.Home(move.file, move.chunk_index);
    if (!move.hash_driven) {
      ++leveling;
      EXPECT_NE(move.from, home) << "move " << k << " takes a replica off its home brick";
      continue;
    }
    ++homing;
    EXPECT_EQ(move.from, chunk.replicas.front()) << "homing move " << k;
    EXPECT_EQ(move.to, home) << "homing move " << k;
    if (pairs_unlinks) {
      ASSERT_LT(k + 1, plan.size()) << "homing move " << k << " has no unlink";
      const ChunkMove& unlink = plan[k + 1];
      EXPECT_TRUE(unlink.is_linkfile) << "homing move " << k << " has no unlink";
      EXPECT_EQ(unlink.file, move.file);
      EXPECT_EQ(unlink.chunk_index, move.chunk_index);
      EXPECT_EQ(unlink.from, move.from);
      EXPECT_EQ(unlink.to, move.to);
      EXPECT_EQ(unlink.bytes, kLinkfileBytes);
    }
  }
  EXPECT_GT(homing, 0u);
  EXPECT_GT(leveling, 0u);
  EXPECT_EQ(unlinks, pairs_unlinks ? homing : 0u);
  for (const auto& [id, bytes] : received) {
    const Brick* brick = dfs.FindBrick(id);
    ASSERT_NE(brick, nullptr);
    EXPECT_LE(static_cast<double>(brick->used_bytes + bytes),
              (fleet + dfs.Tolerance()) * static_cast<double>(brick->capacity_bytes))
        << "brick " << id << " receives more than its budget";
  }
}

TEST(PlannerContract, GlusterHomesWithUnlinksAndLevelsWithinBudget) {
  CheckPlannerContract<GlusterLikeCluster>(/*pairs_unlinks=*/true);
}

TEST(PlannerContract, LeoHomesAndLevelsWithinBudget) {
  CheckPlannerContract<LeoLikeCluster>(/*pairs_unlinks=*/false);
}

// The home memo against a fresh HomeBrick. After every step each live
// chunk's memoized home must equal a fresh one; the check fills every stale
// memo, so a step that moves a home without moving the home epoch leaves a
// filled memo behind and fails the next check.
template <typename Cluster>
void CheckHomeMemo() {
  auto dfs = std::make_unique<PlannerProbe<Cluster>>();
  auto check = [&](const std::string& step) {
    size_t chunks = 0;
    size_t stale = 0;
    for (const auto& [file, layout] : dfs->file_layouts()) {
      for (uint32_t i = 0; i < layout.chunks.size(); ++i) {
        ++chunks;
        stale += dfs->MemoHome(file, i) != dfs->Home(file, i) ? 1 : 0;
      }
    }
    EXPECT_GT(chunks, 0u) << step;
    EXPECT_EQ(stale, 0u) << step << ": memoized homes differ from fresh ones";
  };
  auto run = [&](OpKind kind, const std::string& path, const std::string& path2 = {},
                 uint64_t size = 0) {
    Operation op;
    op.kind = kind;
    op.path = path;
    op.path2 = path2;
    op.size = size;
    op.brick = dfs->ListBricks().front();
    op.node = dfs->ListStorageNodes().back();
    EXPECT_TRUE(dfs->Execute(op).status.ok()) << op.ToString();
  };
  auto populate = [&](const std::string& tag) {
    run(OpKind::kMkdir, "/d" + tag);
    run(OpKind::kMkdir, "/d" + tag + "/sub");
    for (int i = 0; i < 12; ++i) {
      run(OpKind::kCreate, "/f" + tag + std::to_string(i), {}, (1 + i % 3) * 3 * kGiB);
      run(OpKind::kCreate, "/d" + tag + "/sub/g" + std::to_string(i), {}, 2 * kGiB);
    }
    check("creates " + tag);
  };
  populate("a");
  run(OpKind::kAppend, "/fa1", {}, 3 * kGiB);
  run(OpKind::kAppend, "/da/sub/g2", {}, 5 * kGiB);
  check("appends");
  run(OpKind::kOverwrite, "/fa3", {}, 7 * kGiB);
  run(OpKind::kTruncateOverwrite, "/fa4", {}, kGiB);
  check("overwrites");
  for (int i = 5; i < 9; ++i) {
    run(OpKind::kRename, "/fa" + std::to_string(i), "/renamed" + std::to_string(i));
  }
  check("file renames");
  run(OpKind::kRename, "/da", "/moved");
  check("directory rename");
  run(OpKind::kAddStorageNode, "");
  check("node added");
  run(OpKind::kExpandVolume, "", {}, 400 * kGiB);
  check("volume expanded");
  run(OpKind::kReduceVolume, "", {}, 200 * kGiB);
  check("volume reduced");
  run(OpKind::kAddVolume, "", {}, 0);
  check("volume added");
  run(OpKind::kRemoveStorageNode, "");
  check("node removed");
  ASSERT_TRUE(dfs->TriggerRebalance().ok());
  Drain(*dfs);
  check("rebalanced");

  SnapshotWriter saved;
  dfs->SaveState(saved);
  auto restored = std::make_unique<PlannerProbe<Cluster>>();
  SnapshotReader reader(saved.buffer());
  ASSERT_TRUE(restored->RestoreState(reader).ok());
  dfs = std::move(restored);
  check("restored");
  run(OpKind::kRename, "/fa9", "/moved/fa9");
  check("file rename after the restore");
  run(OpKind::kAddStorageNode, "");
  check("node added after the restore");

  dfs->ResetToInitial();
  populate("b");
  run(OpKind::kRename, "/db/sub", "/db2");
  check("directory rename after the reset");
}

TEST(HomeMemo, GlusterMatchesAFreshHomeAfterEveryStep) {
  CheckHomeMemo<GlusterLikeCluster>();
}

TEST(HomeMemo, LeoMatchesAFreshHomeAfterEveryStep) {
  CheckHomeMemo<LeoLikeCluster>();
}

TEST(FlavorFactory, BuildsEveryFlavor) {
  for (Flavor flavor :
       {Flavor::kHdfs, Flavor::kCeph, Flavor::kGluster, Flavor::kLeo,
        Flavor::kGeo}) {
    std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, 1, 6, 3);
    ASSERT_NE(dfs, nullptr);
    EXPECT_EQ(dfs->flavor(), flavor);
    EXPECT_EQ(dfs->ListStorageNodes().size(), 6u);
    EXPECT_EQ(dfs->ListMetaNodes().size(), 3u);
    EXPECT_FALSE(dfs->name().empty());
    EXPECT_FALSE(dfs->DescribeState().empty());
  }
  EXPECT_EQ(MakeCluster(Flavor::kCustom, 1), nullptr);
}

}  // namespace
}  // namespace themis
