// Geotag tree + scheduling groups for the GeoFS flavor (EOS's
// GeoTreeEngine/FsView in miniature): every storage node carries a geotag
// (site, rack) and belongs to exactly one scheduling group; groups span
// sites so intra-group replication is cross-site by construction.
//
// Admission is deterministic and history-dependent: a new node lands on the
// site with the fewest nodes, the least-populated rack within that site, and
// the non-full scheduling group with the fewest members (a fresh group if
// all are full). Because the outcome depends on the add/remove history, the
// assignment is real state — the GeoFS flavor persists every node's tag and
// group and the group count (snapshot v9); nothing here is ever recomputed
// from topology.

#ifndef SRC_DFS_PLACEMENT_GEO_TREE_H_
#define SRC_DFS_PLACEMENT_GEO_TREE_H_

#include <cstdint>
#include <vector>

#include "src/dfs/types.h"

namespace themis {

struct GeoTag {
  uint16_t site = 0;
  uint16_t rack = 0;
};

class GeoTreeEngine {
 public:
  GeoTreeEngine(int sites, int racks_per_site, int group_size);

  // Admits `id`: fewest-nodes site, fewest-nodes rack within it, fewest-
  // members non-full scheduling group. Returns the group index. Ties break
  // toward the lowest index, so the layout is a pure function of history.
  uint32_t AssignNode(NodeId id);

  // Drops `id` (decommission); its site/rack/group slots free up for future
  // admissions. Unknown ids are ignored.
  void RemoveNode(NodeId id);

  // Snapshot restore, right after Clear(): recreates `count` empty
  // scheduling groups. Groups emptied by decommissions keep their index and
  // still take admissions, so the count is restored, not derived from the
  // restored members.
  void RestoreGroups(uint32_t count);

  // Re-admits a node at its persisted coordinates (snapshot restore). The
  // caller has checked that `id` is not yet admitted, that `tag` lies in
  // the tree, and that `group` < group_count().
  void RestoreNode(NodeId id, GeoTag tag, uint32_t group);

  void Clear();

  bool Contains(NodeId id) const {
    return id < assigned_.size() && assigned_[id];
  }
  GeoTag TagOf(NodeId id) const {
    return Contains(id) ? node_tag_[id] : GeoTag{};
  }
  uint32_t GroupOf(NodeId id) const {
    return Contains(id) ? node_group_[id] : 0xffffffffu;
  }

  int sites() const { return sites_; }
  int racks_per_site() const { return racks_per_site_; }
  int group_size() const { return group_size_; }
  uint32_t group_count() const { return static_cast<uint32_t>(group_members_.size()); }
  uint32_t node_count() const { return node_count_; }
  uint32_t SiteNodeCount(uint16_t site) const {
    return site < site_counts_.size() ? site_counts_[site] : 0;
  }
  // Members of one scheduling group, in admission order (may include nodes
  // the cluster currently reports as crashed; callers filter by serving).
  const std::vector<NodeId>& GroupMembers(uint32_t group) const;

 private:
  void EnsureNodeSlots(NodeId id);

  int sites_;
  int racks_per_site_;
  int group_size_;
  uint32_t node_count_ = 0;
  std::vector<uint8_t> assigned_;    // dense by NodeId
  std::vector<GeoTag> node_tag_;     // dense by NodeId
  std::vector<uint32_t> node_group_; // dense by NodeId
  std::vector<uint32_t> site_counts_;
  std::vector<std::vector<uint32_t>> rack_counts_;  // [site][rack]
  std::vector<std::vector<NodeId>> group_members_;
};

}  // namespace themis

#endif  // SRC_DFS_PLACEMENT_GEO_TREE_H_
