// HDFS-style load-weighted target selection.
//
// Mirrors the NameNode's sortByLoad (paper Fig. 4): targets are bucketed into
// a TreeMap keyed by a coarse load weight; buckets are traversed from light
// to heavy, and targets inside a bucket are shuffled so equally loaded nodes
// share new blocks. The paper's HDFS-13279 bug lives exactly here — a stale
// membership entry sorted into the array makes the migration calculation
// wrong — so the flavor feeds this structure from its (possibly stale)
// cluster map.

#ifndef SRC_DFS_PLACEMENT_WEIGHTED_TREE_H_
#define SRC_DFS_PLACEMENT_WEIGHTED_TREE_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/dfs/types.h"

namespace themis {

struct WeightedTarget {
  BrickId brick = kInvalidBrick;
  double used_fraction = 0.0;  // load signal
};

// A tree is refilled for every placement, so Clear() keeps each bucket's
// storage: steady-state refills allocate nothing.
class WeightedTree {
 public:
  // `buckets` controls how coarse the weight quantization is (HDFS uses
  // integer weights; we quantize used-fraction into this many levels).
  explicit WeightedTree(int buckets = 20);

  void Clear();
  void Insert(const WeightedTarget& target);

  // Writes the light-to-heavy target list into `out` (replacing its
  // contents), insertion order shuffled within each bucket.
  void SortByLoad(Rng& rng, std::vector<BrickId>& out) const;

  size_t size() const { return count_; }

 private:
  std::vector<std::vector<BrickId>> buckets_;  // weight bucket -> targets
  size_t count_ = 0;
};

}  // namespace themis

#endif  // SRC_DFS_PLACEMENT_WEIGHTED_TREE_H_
