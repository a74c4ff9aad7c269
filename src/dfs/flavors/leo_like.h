// LeoFS-like cluster: objects are placed on a consistent-hash ring with
// virtual nodes; gateway (metadata) nodes front the storage cluster; ring
// changes enqueue an asynchronous rebalance that moves the affected arcs'
// objects (takeover / rebalance-list semantics).

#ifndef SRC_DFS_FLAVORS_LEO_LIKE_H_
#define SRC_DFS_FLAVORS_LEO_LIKE_H_

#include <string>
#include <vector>

#include "src/dfs/cluster.h"
#include "src/dfs/placement/hash_ring.h"

namespace themis {

class LeoLikeCluster : public DfsCluster {
 public:
  explicit LeoLikeCluster(ClusterConfig config = DefaultConfig());

  static ClusterConfig DefaultConfig();

  const HashRing& ring() const { return ring_; }

 protected:
  ReplicaSet PlaceChunk(const std::string& path, uint32_t chunk_index,
                        uint64_t bytes) override;
  bool BuildRebalancePlan(MigrationPlan& plan) override;
  // The chunk's ring primary. Every ring change invalidates the base's
  // home memo.
  BrickId HomeBrick(FileId file, uint32_t chunk_index, const std::string* path) const override;
  void OnTopologyChangedInternal() override;
  // Env-fault crash model (DESIGN.md §14): the ring is persisted per node in
  // LeoFS; a restarted manager reloads it from the stored plantings instead
  // of recomputing from capacity (which would lose the hysteresis history).
  void OnBalancerRestarted() override;
  // Checkpointing: planted ring weights are history-dependent (the ±25%/−20%
  // hysteresis in OnTopologyChangedInternal), so the ring is rebuilt from the
  // saved weights, not recomputed from capacity.
  void SaveFlavorState(SnapshotWriter& writer) const override;
  Status RestoreFlavorState(SnapshotReader& reader) override;

 private:
  static uint64_t ObjectHash(const std::string& path, uint32_t chunk_index);

  // The weight each ring target was planted with, sorted by brick id: the
  // same targets as ring_, in the order SaveFlavorState writes them.
  struct PlantedWeight {
    BrickId id = kInvalidBrick;
    double weight = 0.0;
  };

  HashRing ring_;
  std::vector<PlantedWeight> ring_weights_;
};

}  // namespace themis

#endif  // SRC_DFS_FLAVORS_LEO_LIKE_H_
