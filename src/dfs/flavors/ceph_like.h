// CephFS-like cluster: objects hash to placement groups; PGs map to OSD
// bricks through CRUSH straw2 selection weighted by capacity; the mgr
// balancer wakes every 60 s and corrects skew with upmap-style PG pinning.

#ifndef SRC_DFS_FLAVORS_CEPH_LIKE_H_
#define SRC_DFS_FLAVORS_CEPH_LIKE_H_

#include <string>
#include <vector>

#include "src/dfs/cluster.h"
#include "src/dfs/placement/crush_map.h"

namespace themis {

class CephLikeCluster : public DfsCluster {
 public:
  explicit CephLikeCluster(ClusterConfig config = DefaultConfig());

  static ClusterConfig DefaultConfig();

  const CrushMap& crush() const { return crush_; }

 protected:
  ReplicaSet PlaceChunk(const std::string& path, uint32_t chunk_index,
                        uint64_t bytes) override;
  bool BuildRebalancePlan(MigrationPlan& plan) override;
  void OnTopologyChangedInternal() override;
  // Env-fault crash model (DESIGN.md §14): upmap pins live in the OSDMap and
  // survive a mgr death; the restarted mgr's first act is a sanity pass that
  // drops pins whose target device is gone or down.
  void OnBalancerRestarted() override;
  // Checkpointing: upmap pins are balancer history; CRUSH weights are derived
  // from capacity and recomputed by the base restore.
  void SaveFlavorState(SnapshotWriter& writer) const override;
  Status RestoreFlavorState(SnapshotReader& reader) override;

 private:
  CrushMap crush_;
};

}  // namespace themis

#endif  // SRC_DFS_FLAVORS_CEPH_LIKE_H_
