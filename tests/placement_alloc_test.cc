// Allocation guard (DESIGN.md §10, "Per-op memos"): once a cluster is warm,
// placing a chunk and running the double-check's 64-mkdir/64-rmdir probe
// burst allocate next to nothing, in every flavor, and re-planting a
// consistent-hash ring target allocates nothing. The binary replaces the
// global operator new to count calls, so it is a test executable of its
// own. Sanitizer runtimes bring their own allocator; the cases skip there.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/dfs/flavors/factory.h"
#include "src/dfs/placement/hash_ring.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace themis {
namespace {

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

Operation MakeOp(OpKind kind, const std::string& path, uint64_t size = 0) {
  Operation op;
  op.kind = kind;
  op.path = path;
  op.size = size;
  return op;
}

size_t PlacedChunks(const DfsCluster& dfs) {
  size_t chunks = 0;
  for (const auto& [file, layout] : dfs.file_layouts()) {
    chunks += layout.chunks.size();
  }
  return chunks;
}

class PlacementAllocTest : public ::testing::TestWithParam<Flavor> {
 protected:
  void SetUp() override {
#ifdef THEMIS_SANITIZED
    GTEST_SKIP() << "the sanitizer runtime replaces the allocator";
#endif
    dfs_ = MakeCluster(GetParam(), 7);
  }

  std::unique_ptr<DfsCluster> dfs_;
};

TEST_P(PlacementAllocTest, PlacingAChunkAllocatesAlmostNothing) {
  constexpr uint64_t kFileSize = 64 * kGiB;  // 32 chunks
  for (int i = 0; i < 8; ++i) {
    OpResult warm = dfs_->Execute(MakeOp(OpKind::kCreate, "/warm" + std::to_string(i), kFileSize));
    ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  }
  std::vector<Operation> creates;
  for (int i = 0; i < 16; ++i) {
    creates.push_back(MakeOp(OpKind::kCreate, "/file" + std::to_string(i), kFileSize));
  }
  const size_t chunks_before = PlacedChunks(*dfs_);

  const uint64_t before = Allocations();
  int failed = 0;
  for (const Operation& op : creates) {
    failed += dfs_->Execute(op).status.ok() ? 0 : 1;
  }
  const uint64_t allocations = Allocations() - before;

  ASSERT_EQ(failed, 0);
  const size_t placed = PlacedChunks(*dfs_) - chunks_before;
  ASSERT_EQ(placed, 16u * 32u);
  EXPECT_LT(static_cast<double>(allocations) / static_cast<double>(placed), 1.5)
      << allocations << " allocations for " << placed << " chunks";
}

TEST_P(PlacementAllocTest, ProbeBurstAllocatesAlmostNothing) {
  // Two warm-up bursts, then the measured one. Each mkdirs 64 fresh names
  // and rmdirs them again through the same operations, as the executor does.
  for (int burst = 0; burst < 3; ++burst) {
    std::vector<Operation> probes;
    for (int i = 0; i < 64; ++i) {
      probes.push_back(
          MakeOp(OpKind::kMkdir, "/p" + std::to_string(burst) + "_" + std::to_string(i)));
    }

    const uint64_t before = Allocations();
    int failed = 0;
    for (const Operation& op : probes) {
      failed += dfs_->Execute(op).status.ok() ? 0 : 1;
    }
    for (auto it = probes.rbegin(); it != probes.rend(); ++it) {
      it->kind = OpKind::kRmdir;
      failed += dfs_->Execute(*it).status.ok() ? 0 : 1;
    }
    const uint64_t allocations = Allocations() - before;

    ASSERT_EQ(failed, 0) << "burst " << burst;
    if (burst == 2) {
      EXPECT_LT(allocations, 8u) << "allocations in a 128-op probe burst";
    }
  }
}

// LeoFS re-plants a ring target on every capacity change. The flat ring
// keeps its vectors' capacity, so once one remove-and-add cycle has grown
// them, re-planting a target of a 16-target ring allocates nothing.
TEST(HashRingAllocTest, ReplantingATargetAllocatesNothing) {
#ifdef THEMIS_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime replaces the allocator";
#endif
  HashRing ring(64);
  for (BrickId target = 1; target <= 16; ++target) {
    ring.AddTarget(target);
  }
  ring.RemoveTarget(7);
  ring.AddTarget(7, 1.2);

  const uint64_t before = Allocations();
  for (int cycle = 0; cycle < 8; ++cycle) {
    ring.RemoveTarget(7);
    ring.AddTarget(7, cycle % 2 == 0 ? 1.0 : 1.2);
  }
  const uint64_t allocations = Allocations() - before;

  EXPECT_EQ(ring.target_count(), 16u);
  EXPECT_EQ(ring.VnodeCount(7), 76);
  EXPECT_EQ(allocations, 0u) << "allocations in 8 re-plants";
}

INSTANTIATE_TEST_SUITE_P(AllFlavors, PlacementAllocTest,
                         ::testing::Values(Flavor::kHdfs, Flavor::kCeph, Flavor::kGluster,
                                           Flavor::kLeo, Flavor::kGeo),
                         [](const ::testing::TestParamInfo<Flavor>& row) {
                           return std::string(FlavorName(row.param));
                         });

}  // namespace
}  // namespace themis
