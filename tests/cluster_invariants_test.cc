// Property tests: core accounting invariants of the DFS simulator must hold
// under arbitrary operation streams, with and without active faults, across
// all four flavors.

#include <gtest/gtest.h>

#include <map>

#include "src/common/bytes.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/fault_registry.h"
#include "src/faults/historical_corpus.h"
#include "src/faults/injector.h"

namespace themis {
namespace {

constexpr uint64_t kLinkfileBytes = 4 * kKiB;

// Recomputes every brick's used_bytes from the chunk layouts + linkfiles and
// compares with the maintained counter.
void CheckBrickAccounting(const DfsCluster& dfs, const char* context) {
  std::map<BrickId, uint64_t> recomputed;
  for (const auto& [file, layout] : dfs.file_layouts()) {
    (void)file;
    for (const ChunkPlacement& chunk : layout.chunks) {
      for (BrickId b : chunk.replicas) {
        recomputed[b] += chunk.bytes;
      }
    }
  }
  for (const auto& [id, brick] : dfs.bricks()) {
    uint64_t expected = recomputed.count(id) != 0 ? recomputed[id] : 0;
    expected += static_cast<uint64_t>(brick.linkfiles) * kLinkfileBytes;
    EXPECT_EQ(brick.used_bytes, expected)
        << context << ": brick " << id << " (node " << brick.node
        << ") used=" << brick.used_bytes << " recomputed=" << expected;
  }
}

// Replica lists never contain duplicates and only reference known bricks.
void CheckReplicaSanity(const DfsCluster& dfs, const char* context) {
  for (const auto& [file, layout] : dfs.file_layouts()) {
    for (const ChunkPlacement& chunk : layout.chunks) {
      for (size_t i = 0; i < chunk.replicas.size(); ++i) {
        EXPECT_NE(dfs.FindBrick(chunk.replicas[i]), nullptr)
            << context << ": file " << file << " references a vanished brick";
        for (size_t j = i + 1; j < chunk.replicas.size(); ++j) {
          EXPECT_NE(chunk.replicas[i], chunk.replicas[j])
              << context << ": duplicate replica for file " << file;
        }
      }
    }
  }
}

struct InvariantCase {
  Flavor flavor;
  bool with_faults;
  uint64_t seed;
};

class ClusterInvariantsTest : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(ClusterInvariantsTest, AccountingHoldsUnderRandomOps) {
  const InvariantCase& param = GetParam();
  std::unique_ptr<DfsCluster> dfs = MakeCluster(param.flavor, param.seed);
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
  for (int step = 0; step < 1200; ++step) {
    Operation op = generator.GenerateOp(rng);
    OpResult result = dfs->Execute(op);
    model.Observe(op, result);
    if (step % 50 == 0) {
      model.SyncFromDfs(*dfs);
    }
    if (step % 100 == 99) {
      CheckBrickAccounting(*dfs, "mid-stream");
      CheckReplicaSanity(*dfs, "mid-stream");
      if (HasFailure()) {
        ADD_FAILURE() << "failing at step " << step << " op " << op.ToString();
        return;
      }
    }
  }
  // Drain all background work, then re-check.
  (void)dfs->TriggerRebalance();
  for (int i = 0; i < 2000 && !dfs->RebalanceDone(); ++i) {
    dfs->AdvanceTime(Seconds(10));
  }
  CheckBrickAccounting(*dfs, "drained");
  CheckReplicaSanity(*dfs, "drained");
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavors, ClusterInvariantsTest,
    ::testing::Values(InvariantCase{Flavor::kHdfs, false, 11},
                      InvariantCase{Flavor::kHdfs, true, 12},
                      InvariantCase{Flavor::kCeph, false, 21},
                      InvariantCase{Flavor::kCeph, true, 22},
                      InvariantCase{Flavor::kGluster, false, 31},
                      InvariantCase{Flavor::kGluster, true, 32},
                      InvariantCase{Flavor::kLeo, false, 41},
                      InvariantCase{Flavor::kLeo, true, 42},
                      InvariantCase{Flavor::kGluster, true, 33},
                      InvariantCase{Flavor::kGluster, true, 34}),
    [](const ::testing::TestParamInfo<InvariantCase>& row) {
      std::string name(FlavorName(row.param.flavor));
      name += row.param.with_faults ? "_faulty" : "_healthy";
      name += "_s" + std::to_string(row.param.seed);
      return name;
    });

}  // namespace
}  // namespace themis
