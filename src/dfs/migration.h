// File data layout and migration plan types shared by the cluster engine,
// the flavor balancers and the fault injector.

#ifndef SRC_DFS_MIGRATION_H_
#define SRC_DFS_MIGRATION_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dfs/types.h"

namespace themis {

// Replicas per chunk, in every flavor.
inline constexpr int kReplication = 2;

// The replica bricks of one chunk (front = primary): at most kReplication
// ids, stored inline, so a chunk owns no heap buffer. It offers the subset
// of std::vector the simulator uses.
class ReplicaSet {
 public:
  BrickId* begin() { return ids_; }
  BrickId* end() { return ids_ + size_; }
  const BrickId* begin() const { return ids_; }
  const BrickId* end() const { return ids_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  BrickId front() const { return ids_[0]; }

  // Requires size() < kReplication.
  void push_back(BrickId id) {
    assert(size_ < static_cast<uint32_t>(kReplication));
    ids_[size_++] = id;
  }
  void erase(BrickId* it) {
    std::copy(it + 1, end(), it);
    --size_;
  }

 private:
  BrickId ids_[kReplication] = {};
  uint32_t size_ = 0;
};

// One stored chunk: `bytes` of data replicated across `replicas` bricks.
struct ChunkPlacement {
  uint64_t bytes = 0;
  ReplicaSet replicas;
  // DfsCluster's memo of the chunk's HomeBrick, valid while `home_epoch`
  // equals the cluster's home epoch (a fresh chunk's 0 never does). Derived
  // state: never serialized.
  mutable BrickId home = kInvalidBrick;
  mutable uint64_t home_epoch = 0;

  bool HasReplicaOn(BrickId brick) const {
    return std::find(replicas.begin(), replicas.end(), brick) != replicas.end();
  }
};

struct FileLayout {
  std::vector<ChunkPlacement> chunks;

  // The file's size: its chunks hold all of its bytes.
  uint64_t Size() const {
    uint64_t size = 0;
    for (const ChunkPlacement& chunk : chunks) size += chunk.bytes;
    return size;
  }
};

// Why a chunk move was scheduled — faults discriminate on this.
enum class MoveReason : uint8_t {
  kRebalance = 0,   // balancer plan
  kRecovery = 1,    // replica repair after node loss
  kEvacuation = 2,  // brick being removed / shrunk
};

struct ChunkMove {
  FileId file = 0;
  uint32_t chunk_index = 0;
  BrickId from = kInvalidBrick;
  BrickId to = kInvalidBrick;
  uint64_t bytes = 0;
  MoveReason reason = MoveReason::kRebalance;
  // GlusterFS: this move concerns a DHT linkfile, not the data itself.
  bool is_linkfile = false;
  // Hash-driven relocation (DHT fix-layout / ring takeover) rather than
  // load-driven leveling; mechanical placement code, not balancer logic.
  bool hash_driven = false;

  std::string ToString() const;
};

using MigrationPlan = std::vector<ChunkMove>;

// Total payload bytes in a plan.
uint64_t PlanBytes(const MigrationPlan& plan);

}  // namespace themis

#endif  // SRC_DFS_MIGRATION_H_
