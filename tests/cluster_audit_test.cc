// The cluster oracle: after every randomized mutation step (op execution,
// fault interleavings, env faults, rebalance rounds, background time),
// AuditCluster (src/dfs/cluster_audit.h) must find nothing. The audit
// compares every maintained quantity with a from-scratch scan exactly, not
// approximately: the load index is integer sums, so even the derived doubles
// must be bit-identical, and any tolerance here would also be a hole in the
// --jobs determinism guarantee (tests/determinism_test.cc). The 1000-node
// GeoFS and HDFS rows check the flat index at fleet sizes far past the
// paper's 10 nodes.
//
// Every row also checks the load epoch's contract: any change to what the
// epoch promises to track (DfsCluster::load_epoch()) must move it, or an
// epoch-keyed memo such as the fault injector's futile-skew memo would replay
// a stale answer.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/dfs/cluster_audit.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/env_fault.h"
#include "src/faults/fault_registry.h"
#include "src/faults/historical_corpus.h"
#include "src/faults/injector.h"

namespace themis {
namespace {

using ChunkKeys = std::vector<std::pair<FileId, uint32_t>>;

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

// The audit must pass, and the epoch must have moved if anything it tracks
// changed since `previous`.
void CheckStep(const DfsCluster& dfs, EpochTracked& previous, int step, const char* context) {
  Status audit = AuditCluster(dfs);
  EXPECT_TRUE(audit.ok()) << context << " step " << step << ": " << audit.ToString();
  EpochTracked now = CaptureEpochTracked(dfs);
  bool changed = now.index != previous.index ||
                 AnyEntryChanged(previous.bricks, now.bricks) ||
                 AnyEntryChanged(previous.serving, now.serving);
  if (changed) {
    EXPECT_NE(now.epoch, previous.epoch)
        << context << " step " << step << ": tracked state changed, epoch did not";
  }
  previous = std::move(now);
}

enum class Faults {
  kNone,
  kBugs,  // the new bugs and the historical corpus
  kEnv,   // the historical and env-gated bugs, plus an env-fault injector
};

struct AuditCase {
  Flavor flavor;
  Faults faults;
  uint64_t seed;
  int steps;
  int storage_nodes = 0;  // 0 = the flavor's default
  // Generator ops only: no interleaved rebalance triggers, idle time or
  // crashes.
  bool plain = false;
};

std::string RowName(const ::testing::TestParamInfo<AuditCase>& row) {
  static const char* const kFaultNames[] = {"_healthy", "_faulty", "_env"};
  std::string name(FlavorName(row.param.flavor));
  name += kFaultNames[static_cast<int>(row.param.faults)];
  name += "_s" + std::to_string(row.param.seed);
  if (row.param.storage_nodes > 0) {
    name += "_n" + std::to_string(row.param.storage_nodes);
  }
  if (row.param.plain) {
    name += "_plain";
  }
  return name;
}

class ClusterAuditTest : public ::testing::TestWithParam<AuditCase> {};

TEST_P(ClusterAuditTest, AuditHoldsAfterEveryStep) {
  const AuditCase& param = GetParam();
  std::unique_ptr<DfsCluster> dfs =
      MakeCluster(param.flavor, param.seed, param.storage_nodes);
  std::vector<FaultSpec> faults;
  if (param.faults == Faults::kBugs) {
    faults = NewBugsFor(param.flavor);
  }
  if (param.faults != Faults::kNone) {
    std::vector<FaultSpec> historical = HistoricalFaultsFor(param.flavor);
    faults.insert(faults.end(), historical.begin(), historical.end());
  }
  if (param.faults == Faults::kEnv) {
    std::vector<FaultSpec> env_bugs = EnvFaultBugsFor(param.flavor);
    faults.insert(faults.end(), env_bugs.begin(), env_bugs.end());
  }
  FaultInjector injector(faults, param.seed);
  dfs->set_fault_hooks(&injector);
  EnvFaultInjector env(param.seed);
  if (param.faults == Faults::kEnv) {
    dfs->set_env_faults(&env);
  }

  Rng rng(param.seed);
  InputModel model;
  model.SyncFromDfs(*dfs);
  OpSeqGenerator generator(model);
  if (param.faults == Faults::kEnv) {
    generator.set_env_fault_share(0.2);  // a campaign's share
  }
  EpochTracked tracked = CaptureEpochTracked(*dfs);
  CheckStep(*dfs, tracked, -1, "initial");
  NodeId env_crashed = kInvalidNode;
  for (int step = 0; step < param.steps; ++step) {
    Operation op = generator.GenerateOp(rng);
    OpResult result = dfs->Execute(op);
    model.Observe(op, result);
    if (step % 50 == 0) {
      model.SyncFromDfs(*dfs);
    }
    if (!param.plain) {
      // Interleave the non-op mutation sources the way a campaign does:
      // explicit rebalance triggers and background (migration/GC) time.
      if (step % 97 == 96) {
        (void)dfs->TriggerRebalance();
      }
      if (step % 13 == 12) {
        dfs->AdvanceTime(Seconds(30));
      }
      // Crash a serving node the way an env fault does and restart it 75
      // steps later, alternating storage and meta nodes, so the restart
      // paths rejoin the serving lists too.
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
    }
    CheckStep(*dfs, tracked, step, "mid-stream");
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
  CheckStep(*dfs, tracked, param.steps, "drained");
}

// 5 flavors x {healthy, faulty, env faults} x 1500 interleaved steps, two
// 1000-node fleets (GeoFS and HDFS), and 10 plain 1200-step streams over the
// four paper flavors.
INSTANTIATE_TEST_SUITE_P(
    AllFlavors, ClusterAuditTest,
    ::testing::Values(AuditCase{Flavor::kGluster, Faults::kNone, 51, 1500},
                      AuditCase{Flavor::kGluster, Faults::kBugs, 52, 1500},
                      AuditCase{Flavor::kGluster, Faults::kEnv, 53, 1500},
                      AuditCase{Flavor::kHdfs, Faults::kNone, 61, 1500},
                      AuditCase{Flavor::kHdfs, Faults::kBugs, 62, 1500},
                      AuditCase{Flavor::kHdfs, Faults::kEnv, 63, 1500},
                      AuditCase{Flavor::kCeph, Faults::kNone, 71, 1500},
                      AuditCase{Flavor::kCeph, Faults::kBugs, 72, 1500},
                      AuditCase{Flavor::kCeph, Faults::kEnv, 73, 1500},
                      AuditCase{Flavor::kLeo, Faults::kNone, 81, 1500},
                      AuditCase{Flavor::kLeo, Faults::kBugs, 82, 1500},
                      AuditCase{Flavor::kLeo, Faults::kEnv, 83, 1500},
                      AuditCase{Flavor::kGeo, Faults::kNone, 91, 1500},
                      AuditCase{Flavor::kGeo, Faults::kBugs, 92, 1500},
                      AuditCase{Flavor::kGeo, Faults::kEnv, 93, 1500},
                      AuditCase{Flavor::kGeo, Faults::kBugs, 101, 600, 1000},
                      AuditCase{Flavor::kHdfs, Faults::kBugs, 102, 400, 1000},
                      AuditCase{Flavor::kHdfs, Faults::kNone, 11, 1200, 0, true},
                      AuditCase{Flavor::kHdfs, Faults::kBugs, 12, 1200, 0, true},
                      AuditCase{Flavor::kCeph, Faults::kNone, 21, 1200, 0, true},
                      AuditCase{Flavor::kCeph, Faults::kBugs, 22, 1200, 0, true},
                      AuditCase{Flavor::kGluster, Faults::kNone, 31, 1200, 0, true},
                      AuditCase{Flavor::kGluster, Faults::kBugs, 32, 1200, 0, true},
                      AuditCase{Flavor::kLeo, Faults::kNone, 41, 1200, 0, true},
                      AuditCase{Flavor::kLeo, Faults::kBugs, 42, 1200, 0, true},
                      AuditCase{Flavor::kGluster, Faults::kBugs, 33, 1200, 0, true},
                      AuditCase{Flavor::kGluster, Faults::kBugs, 34, 1200, 0, true}),
    RowName);

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
    CheckStep(*dfs, tracked, 0, "zero-byte skew");

    EXPECT_EQ(dfs->DestroyBytes(to, kGiB), 0u);
    ASSERT_TRUE(dfs->ChunksOnBrickRef(to).empty());  // the replica is gone
    CheckStep(*dfs, tracked, 1, "zero-byte destroy");
  }
}

}  // namespace
}  // namespace themis
