// The load index (DESIGN.md §10): what DfsCluster's per-op reads need to know
// about storage utilization, kept current by one narrow set of mutations.
//
// It holds the serving bricks and serving storage nodes (each sorted by id),
// every storage node's online used bytes and online capacity, each brick's
// UsedFraction() (dense by brick id), and the load epoch. The fleet sums, the
// imbalance spread and the hottest brick are derived by scanning the serving
// lists; the sums and the spread are memoized on the epoch. Every sum is an
// integer, so every derived double is bit-identical to a from-scratch walk of
// the brick and node maps — AuditCluster (src/dfs/cluster_audit.h) compares
// the two exactly.
//
// In the shape of YDB Hive's TObjectDistribution: the index never reads the
// cluster's maps. Each mutation carries what changed, and updates the brick
// fraction, the per-node sums and the epoch together, so no caller pairs them
// by hand.

#ifndef SRC_DFS_LOAD_INDEX_H_
#define SRC_DFS_LOAD_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/dfs/brick.h"
#include "src/dfs/types.h"

namespace themis {

// Inserts `id` into, or erases it from, a sorted id list.
template <typename Id>
void SetSortedMember(std::vector<Id>& ids, Id id, bool member) {
  auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  bool listed = pos != ids.end() && *pos == id;
  if (member && !listed) {
    ids.insert(pos, id);
  } else if (!member && listed) {
    ids.erase(pos);
  }
}

class LoadIndex {
 public:
  // Storage statistics over the serving nodes, one scan per epoch.
  struct Stats {
    double spread = 0.0;      // hottest node's utilization minus the fleet's, >= 0
    uint64_t fleet_used = 0;  // bytes on serving bricks
    uint64_t fleet_cap = 0;   // capacity of serving bricks
  };

  // ---- mutations ----
  // Drops every node and brick. The epoch keeps counting up, so a memo keyed
  // on it never matches across a clear.
  void Clear();
  // A storage node joins, with no bricks yet. Ids are allocated in ascending
  // order, so appending keeps the serving list sorted.
  void AddNode(NodeId id, bool serving);
  // A brick joins its (already added) node, in ascending brick-id order.
  void AddBrick(const Brick& brick);
  // `brick.used_bytes` just changed from `old_used`.
  void OnBytesChanged(const Brick& brick, uint64_t old_used) {
    brick_fraction_[brick.id] = brick.UsedFraction();
    if (brick.online) {
      nodes_[brick.node].used_online += brick.used_bytes - old_used;  // may wrap
    }
    ++epoch_;
  }
  // `brick.capacity_bytes` just changed from `old_capacity`.
  void OnCapacityChanged(const Brick& brick, uint64_t old_capacity) {
    brick_fraction_[brick.id] = brick.UsedFraction();
    if (brick.online) {
      nodes_[brick.node].cap_online += brick.capacity_bytes - old_capacity;
    }
    ++epoch_;
  }
  // `brick.online` just flipped to false.
  void OnBrickOffline(const Brick& brick);
  // A node's serving flag flipped; `online_bricks` are its online bricks,
  // which join or leave the serving-brick list. The per-node sums keep them
  // either way: SampleLoad still reports a crashed node's mounted bricks.
  void SetNodeServing(NodeId id, bool serving, std::span<const BrickId> online_bricks);
  // Something the epoch tracks but the index does not hold changed (the
  // replica index).
  void Touch() { ++epoch_; }

  // ---- reads ----
  const std::vector<BrickId>& serving_bricks() const { return serving_bricks_; }
  const std::vector<NodeId>& serving_nodes() const { return serving_nodes_; }
  // Bytes and capacity of a storage node's online bricks.
  uint64_t NodeUsed(NodeId id) const { return id < nodes_.size() ? nodes_[id].used_online : 0; }
  uint64_t NodeCapacity(NodeId id) const {
    return id < nodes_.size() ? nodes_[id].cap_online : 0;
  }
  double BrickFraction(BrickId id) const { return brick_fraction_[id]; }
  const Stats& stats() const;
  // Max UsedFraction over the serving bricks, smallest id on ties;
  // kInvalidBrick when nothing serves.
  BrickId HottestServingBrick() const;
  // Moves on every change to a brick's bytes, capacity or online flag, to
  // node serving membership, and on every Touch().
  uint64_t epoch() const { return epoch_; }

 private:
  struct NodeLoad {
    uint64_t used_online = 0;
    uint64_t cap_online = 0;
    bool serving = false;
  };

  std::vector<BrickId> serving_bricks_;
  std::vector<NodeId> serving_nodes_;
  // Dense by NodeId (ids are shared with meta nodes; their slots stay
  // default and are never read).
  std::vector<NodeLoad> nodes_;
  // Dense by BrickId.
  std::vector<double> brick_fraction_;
  uint64_t epoch_ = 0;
  mutable uint64_t stats_epoch_ = UINT64_MAX;
  mutable Stats stats_;
};

}  // namespace themis

#endif  // SRC_DFS_LOAD_INDEX_H_
