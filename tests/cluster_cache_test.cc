// Differential oracle for the incremental load-accounting layer: after every
// randomized mutation step (op execution, fault interleavings, rebalance
// rounds, background time), every cached aggregate must equal a from-scratch
// brute-force recomputation over the raw brick/node state — exactly, not
// approximately. All the aggregates are integer running sums, so even the
// derived doubles (fractions, imbalance spread) must be bit-identical; any
// EXPECT_EQ tolerance here would also be a hole in the --jobs determinism
// guarantee (tests/determinism_test.cc). The 1000-node GeoFS and HDFS rows
// check the flat index at fleet sizes far past the paper's 10 nodes.
//
// The 10-node rows also check the replica index against the layouts and the
// load epoch's contract: any change to what the epoch promises to track
// (DfsCluster::load_epoch()) must move it, or an epoch-keyed memo such as
// the fault injector's futile-skew memo would replay a stale answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/fault_registry.h"
#include "src/faults/historical_corpus.h"
#include "src/faults/injector.h"

namespace themis {
namespace {

// Everything below recomputes the aggregates the way the pre-cache code did:
// full walks over bricks()/storage_nodes(), no shared intermediate state.

std::vector<BrickId> BruteServingBricks(const DfsCluster& dfs) {
  std::vector<BrickId> out;
  for (const auto& [id, brick] : dfs.bricks()) {
    if (!brick.online) {
      continue;
    }
    const StorageNode* node = dfs.FindStorageNode(brick.node);
    if (node != nullptr && node->Serving()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<NodeId> BruteServingStorageNodeIds(const DfsCluster& dfs) {
  std::vector<NodeId> out;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    if (node.Serving()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<NodeId> BruteServingMetaNodeIds(const DfsCluster& dfs) {
  std::vector<NodeId> out;
  for (const auto& [id, node] : dfs.meta_nodes()) {
    if (node.Serving()) {
      out.push_back(id);
    }
  }
  return out;
}

uint64_t BruteTotalCapacityBytes(const DfsCluster& dfs) {
  uint64_t total = 0;
  for (BrickId id : BruteServingBricks(dfs)) {
    total += dfs.FindBrick(id)->capacity_bytes;
  }
  return total;
}

uint64_t BruteTotalUsedBytes(const DfsCluster& dfs) {
  uint64_t total = 0;
  for (const auto& [id, brick] : dfs.bricks()) {
    (void)id;
    total += brick.used_bytes;
  }
  return total;
}

uint64_t BruteTotalServingUsedBytes(const DfsCluster& dfs) {
  uint64_t total = 0;
  for (BrickId id : BruteServingBricks(dfs)) {
    total += dfs.FindBrick(id)->used_bytes;
  }
  return total;
}

uint64_t BruteFreeSpaceBytes(const DfsCluster& dfs) {
  uint64_t capacity = 0;
  uint64_t used = 0;
  for (BrickId id : BruteServingBricks(dfs)) {
    const Brick* brick = dfs.FindBrick(id);
    capacity += brick->capacity_bytes;
    used += std::min(brick->used_bytes, brick->capacity_bytes);
  }
  return capacity - used;
}

std::vector<double> BrutePerNodeUsedBytes(const DfsCluster& dfs) {
  std::vector<double> out;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    (void)id;
    if (!node.Serving()) {
      continue;
    }
    uint64_t used = 0;
    for (BrickId b : node.bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick != nullptr) {
        used += brick->used_bytes;
      }
    }
    out.push_back(static_cast<double>(used));
  }
  return out;
}

std::vector<double> BrutePerNodeUsedFraction(const DfsCluster& dfs) {
  std::vector<double> out;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    (void)id;
    if (!node.Serving()) {
      continue;
    }
    uint64_t used = 0;
    uint64_t capacity = 0;
    for (BrickId b : node.bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick != nullptr && brick->online) {
        used += brick->used_bytes;
        capacity += brick->capacity_bytes;
      }
    }
    if (capacity > 0) {
      out.push_back(static_cast<double>(used) / static_cast<double>(capacity));
    }
  }
  return out;
}

double BruteStorageImbalance(const DfsCluster& dfs) {
  std::vector<double> fractions = BrutePerNodeUsedFraction(dfs);
  if (fractions.size() < 2) {
    return 0.0;
  }
  uint64_t used = 0;
  uint64_t capacity = 0;
  for (BrickId id : BruteServingBricks(dfs)) {
    const Brick* brick = dfs.FindBrick(id);
    used += brick->used_bytes;
    capacity += brick->capacity_bytes;
  }
  if (capacity == 0) {
    return 0.0;
  }
  double fleet = static_cast<double>(used) / static_cast<double>(capacity);
  double max_fraction = *std::max_element(fractions.begin(), fractions.end());
  return std::max(0.0, max_fraction - fleet);
}

// Strict max over the serving bricks in brick-id order, so the smallest id
// wins fraction ties.
BrickId BruteHottestServingBrick(const DfsCluster& dfs) {
  BrickId best = kInvalidBrick;
  double best_fraction = -1.0;
  for (BrickId id : BruteServingBricks(dfs)) {
    double fraction = dfs.FindBrick(id)->UsedFraction();
    if (fraction > best_fraction) {
      best_fraction = fraction;
      best = id;
    }
  }
  return best;
}

void CheckAggregates(const DfsCluster& dfs, int step, const char* context) {
  // Exact equality throughout: every cached quantity is derived from integer
  // sums, so bit-identity with the brute-force recomputation is required.
  EXPECT_EQ(dfs.ServingBricks(), BruteServingBricks(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.ServingStorageNodeIds(), BruteServingStorageNodeIds(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.ListMetaNodes(), BruteServingMetaNodeIds(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.TotalCapacityBytes(), BruteTotalCapacityBytes(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.TotalUsedBytes(), BruteTotalUsedBytes(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.TotalServingUsedBytes(), BruteTotalServingUsedBytes(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.FreeSpaceBytes(), BruteFreeSpaceBytes(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.PerNodeUsedBytes(), BrutePerNodeUsedBytes(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.PerNodeUsedFraction(), BrutePerNodeUsedFraction(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.StorageImbalance(), BruteStorageImbalance(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.HottestServingBrick(), BruteHottestServingBrick(dfs))
      << context << " step " << step;
  // The monitor's scan lists every storage node, then every meta node, that
  // is online or crashed, each in id order; decommissioned nodes drop out.
  std::vector<NodeId> listed;
  for (const LoadSample& sample : dfs.SampleLoad()) {
    listed.push_back(sample.node);
  }
  std::vector<NodeId> members;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    if (node.online || node.crashed) {
      members.push_back(id);
    }
  }
  for (const auto& [id, node] : dfs.meta_nodes()) {
    if (node.online || node.crashed) {
      members.push_back(id);
    }
  }
  EXPECT_EQ(listed, members) << context << " step " << step;
  // The monitor's per-node samples ride on the same aggregates.
  for (const LoadSample& sample : dfs.SampleLoad()) {
    if (!sample.is_storage) {
      continue;
    }
    const StorageNode* node = dfs.FindStorageNode(sample.node);
    ASSERT_NE(node, nullptr);
    uint64_t used = 0;
    uint64_t capacity = 0;
    for (BrickId b : node->bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick != nullptr && brick->online) {
        used += brick->used_bytes;
        capacity += brick->capacity_bytes;
      }
    }
    EXPECT_EQ(sample.used_bytes, used)
        << context << " step " << step << " node " << sample.node;
    EXPECT_EQ(sample.capacity_bytes, capacity)
        << context << " step " << step << " node " << sample.node;
  }
}

using ChunkKeys = std::vector<std::pair<FileId, uint32_t>>;

// The replica index rebuilt from the layouts. Layouts iterate in file order
// and chunks in index order, so every list comes out sorted.
std::map<BrickId, ChunkKeys> BruteReplicaIndex(const DfsCluster& dfs) {
  std::map<BrickId, ChunkKeys> out;
  for (const auto& [file, layout] : dfs.file_layouts()) {
    for (uint32_t c = 0; c < layout.chunks.size(); ++c) {
      for (BrickId b : layout.chunks[c].replicas) {
        out[b].emplace_back(file, c);
      }
    }
  }
  return out;
}

// What the load epoch promises to track, captured at one step.
struct EpochTracked {
  uint64_t epoch = 0;
  std::map<BrickId, std::tuple<uint64_t, uint64_t, bool>> bricks;  // used, cap, online
  std::map<NodeId, bool> serving;
  std::map<BrickId, ChunkKeys> index;  // non-empty lists only
};

EpochTracked CaptureEpochTracked(const DfsCluster& dfs) {
  EpochTracked state;
  state.epoch = dfs.load_epoch();
  for (const auto& [id, brick] : dfs.bricks()) {
    state.bricks[id] = {brick.used_bytes, brick.capacity_bytes, brick.online};
    if (!dfs.ChunksOnBrickRef(id).empty()) {
      state.index[id] = dfs.ChunksOnBrickRef(id);
    }
  }
  for (const auto& [id, node] : dfs.storage_nodes()) {
    state.serving[id] = node.Serving();
  }
  return state;
}

// Whether some entry of `after` is new or differs from `before`. Entries
// that vanished do not count: garbage collection drops only drained offline
// bricks, which no serving-set or index read can reach.
template <typename Map>
bool AnyEntryChanged(const Map& before, const Map& after) {
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    if (it == before.end() || it->second != value) {
      return true;
    }
  }
  return false;
}

// The replica index must equal the one rebuilt from the layouts, and the
// epoch must have moved if anything it tracks changed since `previous`.
void CheckReplicaIndexAndEpoch(const DfsCluster& dfs, EpochTracked& previous,
                               int step, const char* context) {
  EpochTracked now = CaptureEpochTracked(dfs);
  EXPECT_EQ(now.index, BruteReplicaIndex(dfs)) << context << " step " << step;
  bool changed = now.index != previous.index ||
                 AnyEntryChanged(previous.bricks, now.bricks) ||
                 AnyEntryChanged(previous.serving, now.serving);
  if (changed) {
    EXPECT_NE(now.epoch, previous.epoch)
        << context << " step " << step << ": tracked state changed, epoch did not";
  }
  previous = std::move(now);
}

struct CacheCase {
  Flavor flavor;
  bool with_faults;
  uint64_t seed;
  int steps;
  int storage_nodes = 0;  // 0 = the flavor's default
};

class ClusterCacheTest : public ::testing::TestWithParam<CacheCase> {};

TEST_P(ClusterCacheTest, CachedAggregatesMatchBruteForce) {
  const CacheCase& param = GetParam();
  std::unique_ptr<DfsCluster> dfs =
      MakeCluster(param.flavor, param.seed, param.storage_nodes);
  std::vector<FaultSpec> faults;
  if (param.with_faults) {
    faults = NewBugsFor(param.flavor);
    std::vector<FaultSpec> historical = HistoricalFaultsFor(param.flavor);
    faults.insert(faults.end(), historical.begin(), historical.end());
  }
  FaultInjector injector(faults, param.seed);
  dfs->set_fault_hooks(&injector);

  Rng rng(param.seed);
  InputModel model;
  model.SyncFromDfs(*dfs);
  OpSeqGenerator generator(model);
  CheckAggregates(*dfs, -1, "initial");
  // The index oracle rebuilds every layout per step: 10-node rows only.
  const bool check_index = param.storage_nodes == 0;
  EpochTracked tracked = CaptureEpochTracked(*dfs);
  if (check_index) {
    CheckReplicaIndexAndEpoch(*dfs, tracked, -1, "initial");
  }
  NodeId env_crashed = kInvalidNode;
  for (int step = 0; step < param.steps; ++step) {
    Operation op = generator.GenerateOp(rng);
    OpResult result = dfs->Execute(op);
    model.Observe(op, result);
    if (step % 50 == 0) {
      model.SyncFromDfs(*dfs);
    }
    // Interleave the non-op mutation sources the way a campaign does:
    // explicit rebalance triggers and background (migration/GC) time.
    if (step % 97 == 96) {
      (void)dfs->TriggerRebalance();
    }
    if (step % 13 == 12) {
      dfs->AdvanceTime(Seconds(30));
    }
    // Crash a serving node the way an env fault does and restart it 75
    // steps later, alternating storage and meta nodes, so the restart paths
    // rejoin the serving lists too.
    if (step % 150 == 40) {
      std::vector<NodeId> pool =
          step % 300 == 40 ? dfs->ListStorageNodes() : dfs->ListMetaNodes();
      if (!pool.empty()) {
        env_crashed = pool[static_cast<size_t>(step) % pool.size()];
        dfs->CrashNodeForEnvFault(env_crashed);
      }
    } else if (step % 150 == 115 && env_crashed != kInvalidNode) {
      dfs->RestartNode(env_crashed);
      env_crashed = kInvalidNode;
    }
    CheckAggregates(*dfs, step, "mid-stream");
    if (check_index) {
      CheckReplicaIndexAndEpoch(*dfs, tracked, step, "mid-stream");
    }
    if (HasFailure()) {
      ADD_FAILURE() << "diverged at step " << step << " op " << op.ToString();
      return;
    }
  }
  // Drain all background work, then re-check the settled state.
  (void)dfs->TriggerRebalance();
  for (int i = 0; i < 2000 && !dfs->RebalanceDone(); ++i) {
    dfs->AdvanceTime(Seconds(10));
  }
  CheckAggregates(*dfs, param.steps, "drained");
  if (check_index) {
    CheckReplicaIndexAndEpoch(*dfs, tracked, param.steps, "drained");
  }
}

// 5 flavors x {healthy, faulty} x 1500 steps = 15000 randomized mutation
// steps, each followed by a full differential check, plus two 1000-node
// fleets (GeoFS and HDFS) that keep the flat index exact at scale.
INSTANTIATE_TEST_SUITE_P(
    AllFlavors, ClusterCacheTest,
    ::testing::Values(CacheCase{Flavor::kGluster, false, 51, 1500},
                      CacheCase{Flavor::kGluster, true, 52, 1500},
                      CacheCase{Flavor::kHdfs, false, 61, 1500},
                      CacheCase{Flavor::kHdfs, true, 62, 1500},
                      CacheCase{Flavor::kCeph, false, 71, 1500},
                      CacheCase{Flavor::kCeph, true, 72, 1500},
                      CacheCase{Flavor::kLeo, false, 81, 1500},
                      CacheCase{Flavor::kLeo, true, 82, 1500},
                      CacheCase{Flavor::kGeo, false, 91, 1500},
                      CacheCase{Flavor::kGeo, true, 92, 1500},
                      CacheCase{Flavor::kGeo, true, 101, 600, 1000},
                      CacheCase{Flavor::kHdfs, true, 102, 400, 1000}),
    [](const ::testing::TestParamInfo<CacheCase>& row) {
      std::string name(FlavorName(row.param.flavor));
      name += row.param.with_faults ? "_faulty" : "_healthy";
      name += "_s" + std::to_string(row.param.seed);
      if (row.param.storage_nodes > 0) {
        name += "_n" + std::to_string(row.param.storage_nodes);
      }
      return name;
    });

// A zero-byte chunk changes the index without moving a byte, so only the
// index's own epoch bumps can report it: swap one such replica, then
// destroy it.
TEST(ReplicaIndexEpochTest, ZeroByteReplicaChangesMoveTheEpoch) {
  for (Flavor flavor : {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph, Flavor::kLeo,
                        Flavor::kGeo}) {
    SCOPED_TRACE(std::string(FlavorName(flavor)));
    std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, 7);
    Operation create;
    create.kind = OpKind::kCreate;
    create.path = "/empty";
    ASSERT_TRUE(dfs->Execute(create).status.ok());
    ASSERT_EQ(dfs->file_layouts().size(), 1u);
    const FileLayout& layout = dfs->file_layouts().begin()->second;
    ASSERT_EQ(layout.chunks.size(), 1u);
    ASSERT_EQ(layout.chunks[0].bytes, 0u);
    const BrickId from = layout.chunks[0].replicas.front();
    BrickId to = kInvalidBrick;
    for (BrickId id : dfs->ServingBricks()) {
      if (!layout.chunks[0].HasReplicaOn(id)) {
        to = id;
        break;
      }
    }
    ASSERT_NE(to, kInvalidBrick);
    EpochTracked tracked = CaptureEpochTracked(*dfs);

    EXPECT_EQ(dfs->SkewBytes(from, to, kGiB), 0u);
    ASSERT_EQ(dfs->ChunksOnBrickRef(to).size(), 1u);  // the swap happened
    CheckReplicaIndexAndEpoch(*dfs, tracked, 0, "zero-byte skew");

    EXPECT_EQ(dfs->DestroyBytes(to, kGiB), 0u);
    ASSERT_TRUE(dfs->ChunksOnBrickRef(to).empty());  // the replica is gone
    CheckReplicaIndexAndEpoch(*dfs, tracked, 1, "zero-byte destroy");
  }
}

}  // namespace
}  // namespace themis
