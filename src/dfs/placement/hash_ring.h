// Consistent-hash ring with virtual nodes (LeoFS-style placement).
//
// Each target (brick) is inserted at `vnodes` pseudo-random points on a
// 64-bit ring; an object key is placed on the first target clockwise from
// its hash, replicas on the next distinct targets. Adding or removing a
// target moves only the keys in the affected arcs — the property LeoFS's
// rebalance relies on.
//
// The ring is flat: one position-sorted vector of vnodes and one
// target-sorted vector of vnode counts. Adding a target merges its sorted
// positions into the ring in one pass and removing one is a single erase
// pass, so a re-plant allocates nothing once the vectors have grown.

#ifndef SRC_DFS_PLACEMENT_HASH_RING_H_
#define SRC_DFS_PLACEMENT_HASH_RING_H_

#include <cstddef>
#include <cstdint>
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
  size_t target_count() const { return targets_.size(); }

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
  struct Vnode {
    uint64_t position = 0;
    BrickId target = kInvalidBrick;
  };
  struct TargetVnodes {
    BrickId target = kInvalidBrick;
    int vnodes = 0;
  };

  bool Occupied(uint64_t position) const;
  // Fills planted_ with the target's vnode positions, sorted. With `probe`,
  // each position is first moved past the ring's vnodes and the target's
  // earlier ones (Mix64 until free), vnode by vnode in order.
  void PlantPositions(BrickId target, int vnodes, bool probe);
  // Merges planted_ into the ring as `target`'s vnodes. Returns false if a
  // planted position was already on the ring (the merge still completes).
  bool MergePlanted(BrickId target);
  // One pass that drops every vnode of `target`.
  void EraseVnodes(BrickId target);

  int vnodes_;
  std::vector<Vnode> ring_;            // sorted by position; positions unique
  std::vector<TargetVnodes> targets_;  // sorted by target
  std::vector<uint64_t> planted_;      // AddTarget's scratch, kept for its capacity
};

}  // namespace themis

#endif  // SRC_DFS_PLACEMENT_HASH_RING_H_
