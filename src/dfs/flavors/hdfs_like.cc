#include "src/dfs/flavors/hdfs_like.h"

#include <algorithm>

namespace themis {

ClusterConfig HdfsLikeCluster::DefaultConfig() {
  ClusterConfig config;
  config.native_threshold = 0.10;  // HDFS Balancer default
  config.balancer_period = Minutes(2);
  return config;
}

HdfsLikeCluster::HdfsLikeCluster(ClusterConfig config)
    : DfsCluster(config, Flavor::kHdfs, "hdfs-like") {
  BuildInitialTopology();
}

void HdfsLikeCluster::OnTopologyChangedInternal() {
  // The NameNode re-registers DataNode bricks. (The real HDFS-13279 bug is a
  // *stale* map — our fault injector reproduces its effect by mutating the
  // balancer plan; the healthy flavor keeps the map in sync.)
  cluster_map_ = ServingBricks();
}

ReplicaSet HdfsLikeCluster::PlaceChunk(const std::string& path, uint32_t chunk_index,
                                       uint64_t bytes) {
  (void)path;
  (void)chunk_index;
  // Build the weight tree from the cluster map and walk light-to-heavy,
  // skipping targets without room and keeping replicas on distinct nodes.
  tree_.Clear();
  for (BrickId id : cluster_map_) {
    const Brick* brick = FindBrick(id);
    if (brick == nullptr || !brick->online) {
      continue;
    }
    tree_.Insert(WeightedTarget{.brick = id, .used_fraction = brick->UsedFraction()});
  }
  tree_.SortByLoad(rng(), sorted_);
  ReplicaSet chosen;
  NodeId used_nodes[kReplication];  // used_nodes[i] holds chosen's i-th node
  for (int pass = 0; pass < 2 && static_cast<int>(chosen.size()) < kReplication; ++pass) {
    for (BrickId id : sorted_) {
      if (static_cast<int>(chosen.size()) >= kReplication) {
        break;
      }
      const Brick* brick = FindBrick(id);
      if (brick == nullptr || brick->FreeBytes() < bytes) {
        continue;
      }
      if (std::find(chosen.begin(), chosen.end(), id) != chosen.end()) {
        continue;
      }
      NodeId* used_end = used_nodes + chosen.size();
      bool node_taken = std::find(used_nodes, used_end, brick->node) != used_end;
      // First pass insists on distinct nodes; second pass relaxes.
      if (pass == 0 && node_taken) {
        continue;
      }
      used_nodes[chosen.size()] = brick->node;
      chosen.push_back(id);
    }
  }
  return chosen;
}

bool HdfsLikeCluster::BuildRebalancePlan(MigrationPlan& plan) {
  // The HDFS Balancer levels DataNode utilization to within the threshold of
  // the cluster average: one iteration snapshots utilization, pairs
  // over-utilized sources with under-utilized targets, then schedules the
  // block moves — the base leveler's plan.
  (void)plan;
  EmitBalancerState(BalancerState::kHdfsIteration);
  EmitBalancerState(BalancerState::kHdfsPairing);
  return true;
}

void HdfsLikeCluster::OnBalancerRestarted() {
  // A restarted Balancer starts from a fresh NameNode DataNode report, so
  // any registrations it missed while down are picked up here.
  cluster_map_ = ServingBricks();
}

}  // namespace themis
