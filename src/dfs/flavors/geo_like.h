// GeoFS: an EOS-style geo-aware cluster for production-scale campaigns
// (DESIGN.md §15). Storage nodes carry geotags (site, rack) in a geotag
// tree and are packed into scheduling groups that span sites; placement is
// two-level — pick a scheduling group by free-space (power-of-two-choices
// between two hash-derived groups, summing each one's serving members),
// then pick replica nodes within the group spreading across distinct sites.
// Rebalancing runs a site-failover stage (hottest site drains toward the
// coldest) before generic leveling. The geotag tree owns group membership;
// placement reads a group's members from it, so a chunk placement touches
// two groups, not the fleet.

#ifndef SRC_DFS_FLAVORS_GEO_LIKE_H_
#define SRC_DFS_FLAVORS_GEO_LIKE_H_

#include <string>
#include <vector>

#include "src/dfs/cluster.h"
#include "src/dfs/placement/geo_tree.h"

namespace themis {

class GeoLikeCluster : public DfsCluster {
 public:
  explicit GeoLikeCluster(ClusterConfig config = DefaultConfig());

  static ClusterConfig DefaultConfig();

  // The geotag tree's shape: three sites of four racks each, and scheduling
  // groups of 16 nodes. Campaigns raise initial_storage_nodes to 1k-10k;
  // the tree and the group count scale with it.
  static constexpr int kSites = 3;
  static constexpr int kRacksPerSite = 4;
  static constexpr int kGroupSize = 16;

  const GeoTreeEngine& engine() const { return engine_; }
  // Utilization (used, capacity) per site over serving nodes — the view the
  // site-failover stage levels. Index = site id.
  std::vector<std::pair<uint64_t, uint64_t>> PerSiteUsedCap() const;

 protected:
  ReplicaSet PlaceChunk(const std::string& path, uint32_t chunk_index,
                        uint64_t bytes) override;
  bool BuildRebalancePlan(MigrationPlan& plan) override;
  // Admission places the node in the geotag tree and a scheduling group.
  void OnStorageNodeAdmitted(NodeId id) override;
  // Decommission releases the node's geotag/group slot in O(1). It is the
  // only way a storage node goes offline, so the engine holds exactly the
  // online nodes. The tree lives in the shared namespace store (EOS keeps it
  // in QuarkDB), so a balancer crash leaves it as it was.
  void OnStorageNodeDecommissioned(NodeId id) override;
  void OnTopologyCleared() override;
  // Heterogeneous fleet: capacity class derived deterministically from the
  // node id (1x / 2x / 4x kBrickCapacity).
  uint64_t BrickCapacityFor(NodeId id) const override;
  // Checkpointing: geotags, group membership and the group count are
  // admission-history state (fewest-first placement), so the record
  // persists them (snapshot v9) and restore validates them against the
  // restored topology: a geotag must name an online storage node, and every
  // online node must have one.
  void SaveFlavorState(SnapshotWriter& writer) const override;
  Status RestoreFlavorState(SnapshotReader& reader) override;

 private:
  // First online brick of `node` with room for `bytes`, else kInvalidBrick.
  BrickId BrickWithRoom(NodeId node, uint64_t bytes) const;
  // One scheduling group's serving members, in node-id order (the engine
  // keeps members in admission order, which is id order). The reference is
  // to a scratch vector, valid until the next call.
  const std::vector<NodeId>& ServingMembers(uint32_t group);
  // Fill fraction (used / capacity of the online bricks) over one scheduling
  // group's serving members; 1.0 when the group has no online capacity.
  double GroupFillFraction(uint32_t group);
  // Replica pick within one scheduling group: distinct-site first pass from
  // a hash-derived start offset, then a fill pass without the constraint.
  void PickWithinGroup(uint32_t group, uint64_t hash, uint64_t bytes, ReplicaSet& chosen);

  GeoTreeEngine engine_;
  std::vector<NodeId> serving_members_;  // ServingMembers scratch
};

}  // namespace themis

#endif  // SRC_DFS_FLAVORS_GEO_LIKE_H_
