#include "src/dfs/placement/weighted_tree.h"

#include <algorithm>
#include <cmath>

namespace themis {

WeightedTree::WeightedTree(int buckets) : buckets_(static_cast<size_t>(std::max(buckets, 1))) {}

void WeightedTree::Clear() {
  for (std::vector<BrickId>& members : buckets_) {
    members.clear();
  }
  count_ = 0;
}

void WeightedTree::Insert(const WeightedTarget& target) {
  const int levels = static_cast<int>(buckets_.size());
  double f = std::clamp(target.used_fraction, 0.0, 1.0);
  int bucket = static_cast<int>(f * levels);
  if (bucket >= levels) {
    bucket = levels - 1;
  }
  buckets_[static_cast<size_t>(bucket)].push_back(target.brick);
  ++count_;
}

void WeightedTree::SortByLoad(Rng& rng, std::vector<BrickId>& out) const {
  out.clear();
  for (const std::vector<BrickId>& members : buckets_) {
    size_t start = out.size();
    out.insert(out.end(), members.begin(), members.end());
    // Collections.shuffle(l) over nodes with the same weight.
    for (size_t i = out.size(); i > start + 1; --i) {
      size_t j = start + rng.PickIndex(i - start);
      std::swap(out[i - 1], out[j]);
    }
  }
}

}  // namespace themis
