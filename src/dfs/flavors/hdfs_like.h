// HDFS-like cluster: a central NameNode tracks DataNodes in a cluster map;
// block placement sorts targets by load through a weight tree (the
// sortByLoad structure of the paper's Fig. 4); the Balancer runs
// periodically with a 10% utilization threshold (the HDFS default).

#ifndef SRC_DFS_FLAVORS_HDFS_LIKE_H_
#define SRC_DFS_FLAVORS_HDFS_LIKE_H_

#include <string>
#include <vector>

#include "src/dfs/cluster.h"
#include "src/dfs/placement/weighted_tree.h"

namespace themis {

class HdfsLikeCluster : public DfsCluster {
 public:
  explicit HdfsLikeCluster(ClusterConfig config = DefaultConfig());

  static ClusterConfig DefaultConfig();

  // The NameNode's view of registered DataNode bricks ("clusterMap").
  const std::vector<BrickId>& cluster_map() const { return cluster_map_; }

 protected:
  ReplicaSet PlaceChunk(const std::string& path, uint32_t chunk_index,
                        uint64_t bytes) override;
  bool BuildRebalancePlan(MigrationPlan& plan) override;
  void OnTopologyChangedInternal() override;
  // Env-fault crash model (DESIGN.md §14): the Balancer tool is stateless —
  // a crash only interrupts the in-flight iteration; the restarted Balancer
  // begins by fetching a fresh DataNode report from the NameNode. The
  // cluster map is derived, so there is no flavor state to checkpoint.
  void OnBalancerRestarted() override;

 private:
  std::vector<BrickId> cluster_map_;
  // PlaceChunk's weight tree and its sorted output, refilled per chunk and
  // kept only to reuse their storage (derived state, never serialized).
  WeightedTree tree_;
  std::vector<BrickId> sorted_;
};

}  // namespace themis

#endif  // SRC_DFS_FLAVORS_HDFS_LIKE_H_
