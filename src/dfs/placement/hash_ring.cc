#include "src/dfs/placement/hash_ring.h"

#include <algorithm>

#include "src/common/rng.h"

namespace themis {

HashRing::HashRing(int vnodes_per_target)
    : vnodes_(vnodes_per_target > 0 ? vnodes_per_target : 1) {}

void HashRing::AddTarget(BrickId target, double weight) {
  if (positions_.count(target) != 0) {
    return;
  }
  int vnodes = static_cast<int>(static_cast<double>(vnodes_) * weight);
  vnodes = std::clamp(vnodes, 4, 4 * vnodes_);
  std::vector<uint64_t>& planted = positions_[target];
  planted.reserve(static_cast<size_t>(vnodes));
  for (int v = 0; v < vnodes; ++v) {
    uint64_t pos = HashCombine(Mix64(target + 0x9e37ULL), static_cast<uint64_t>(v));
    // Resolve (vanishingly rare) collisions by probing.
    while (ring_.count(pos) != 0) {
      pos = Mix64(pos);
    }
    ring_[pos] = target;
    planted.push_back(pos);
  }
}

void HashRing::RemoveTarget(BrickId target) {
  auto it = positions_.find(target);
  if (it == positions_.end()) {
    return;
  }
  for (uint64_t pos : it->second) {
    ring_.erase(pos);
  }
  positions_.erase(it);
}

bool HashRing::HasTarget(BrickId target) const { return positions_.count(target) != 0; }

int HashRing::VnodeCount(BrickId target) const {
  auto it = positions_.find(target);
  return it == positions_.end() ? 0 : static_cast<int>(it->second.size());
}

size_t HashRing::Locate(uint64_t key_hash, std::span<BrickId> out) const {
  if (ring_.empty()) {
    return 0;
  }
  size_t want = std::min(out.size(), positions_.size());
  size_t found = 0;
  auto it = ring_.lower_bound(key_hash);
  size_t steps = 0;
  while (found < want && steps < 2 * ring_.size()) {
    if (it == ring_.end()) {
      it = ring_.begin();
    }
    BrickId candidate = it->second;
    std::span<const BrickId> taken = out.first(found);
    if (std::ranges::find(taken, candidate) == taken.end()) {
      out[found++] = candidate;
    }
    ++it;
    ++steps;
  }
  return found;
}

std::vector<BrickId> HashRing::Locate(uint64_t key_hash, int replicas) const {
  std::vector<BrickId> out(static_cast<size_t>(std::max(replicas, 0)));
  out.resize(Locate(key_hash, std::span<BrickId>(out)));
  return out;
}

BrickId HashRing::Primary(uint64_t key_hash) const {
  BrickId primary = kInvalidBrick;
  Locate(key_hash, std::span<BrickId>(&primary, 1));
  return primary;
}

std::vector<BrickId> HashRing::Targets() const {
  std::vector<BrickId> out;
  out.reserve(positions_.size());
  for (const auto& [target, planted] : positions_) {
    (void)planted;
    out.push_back(target);
  }
  return out;
}

}  // namespace themis
