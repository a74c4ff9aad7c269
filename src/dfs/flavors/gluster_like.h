// GlusterFS-like cluster: file names hash into DHT ranges assigned to
// bricks; topology changes re-run fix-layout; files whose hash now maps to a
// different brick leave a *linkfile* on the new hashed brick until the
// rebalance migrates the data — the mechanism behind the paper's case study
// (failure #1 / Fig. 11). Rebalance is a periodic command with a 20%
// threshold (the GlusterFS default).

#ifndef SRC_DFS_FLAVORS_GLUSTER_LIKE_H_
#define SRC_DFS_FLAVORS_GLUSTER_LIKE_H_

#include <string>
#include <vector>

#include "src/dfs/cluster.h"
#include "src/dfs/placement/dht_layout.h"

namespace themis {

class GlusterLikeCluster : public DfsCluster {
 public:
  explicit GlusterLikeCluster(ClusterConfig config = DefaultConfig());

  static ClusterConfig DefaultConfig();

  const DhtLayout& layout() const { return layout_; }
  // Linkfiles on disk: the sum of every brick's count (one brick scan).
  uint32_t live_linkfiles() const;

 protected:
  ReplicaSet PlaceChunk(const std::string& path, uint32_t chunk_index,
                        uint64_t bytes) override;
  bool BuildRebalancePlan(MigrationPlan& plan) override;
  // The brick the chunk's name hashes to under the DHT layout.
  BrickId HomeBrick(FileId file, uint32_t chunk_index, const std::string* path) const override;
  void OnTopologyChangedInternal() override;
  void OnRenamed(const Operation& op, bool is_file) override;
  void OnRebalanceRoundDone() override;
  // Env-fault crash model (DESIGN.md §14): a crash mid-rebalance leaves the
  // stale linkfiles on disk (the reconcile of OnRebalanceRoundDone never
  // ran); the restarted rebalance begins with a fresh fix-layout, exactly
  // like `gluster volume rebalance start` after a daemon death.
  void OnBalancerRestarted() override;

 private:
  // The brick after `primary` in layout order hosts the replica pair.
  BrickId ReplicaPartner(BrickId primary) const;

  DhtLayout layout_;
};

}  // namespace themis

#endif  // SRC_DFS_FLAVORS_GLUSTER_LIKE_H_
