// Consistent-hash ring with virtual nodes (LeoFS-style placement).
//
// Each target (brick) is inserted at `vnodes` pseudo-random points on a
// 64-bit ring; an object key is placed on the first target clockwise from
// its hash, replicas on the next distinct targets. Adding or removing a
// target moves only the keys in the affected arcs — the property LeoFS's
// rebalance relies on.

#ifndef SRC_DFS_PLACEMENT_HASH_RING_H_
#define SRC_DFS_PLACEMENT_HASH_RING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/dfs/types.h"

namespace themis {

class HashRing {
 public:
  explicit HashRing(int vnodes_per_target = 64);

  // `weight` scales the target's share of the ring (its virtual-node count);
  // 1.0 = the configured vnodes_per_target.
  void AddTarget(BrickId target, double weight = 1.0);
  void RemoveTarget(BrickId target);
  // Virtual nodes currently planted for a target (0 if absent).
  int VnodeCount(BrickId target) const;
  bool HasTarget(BrickId target) const;
  size_t target_count() const { return positions_.size(); }

  // Writes the first `out.size()` distinct targets clockwise from hash(key)
  // into `out` and returns how many: fewer if the ring has fewer targets,
  // none if the ring is empty.
  size_t Locate(uint64_t key_hash, std::span<BrickId> out) const;
  // The same walk as a vector of up to `replicas` targets.
  std::vector<BrickId> Locate(uint64_t key_hash, int replicas) const;

  // The primary target for a key (first element of Locate), or kInvalidBrick.
  BrickId Primary(uint64_t key_hash) const;

  std::vector<BrickId> Targets() const;

 private:
  int vnodes_;
  std::map<uint64_t, BrickId> ring_;  // position -> target
  // Per-target vnode positions, so RemoveTarget erases its own entries in
  // O(v log n) and VnodeCount is a lookup instead of a full-ring scan.
  std::map<BrickId, std::vector<uint64_t>> positions_;
};

}  // namespace themis

#endif  // SRC_DFS_PLACEMENT_HASH_RING_H_
