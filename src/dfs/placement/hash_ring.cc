#include "src/dfs/placement/hash_ring.h"

#include <algorithm>

#include "src/common/rng.h"

namespace themis {

HashRing::HashRing(int vnodes_per_target)
    : vnodes_(vnodes_per_target > 0 ? vnodes_per_target : 1) {}

bool HashRing::Occupied(uint64_t position) const {
  auto it = std::ranges::lower_bound(ring_, position, {}, &Vnode::position);
  return it != ring_.end() && it->position == position;
}

void HashRing::PlantPositions(BrickId target, int vnodes, bool probe) {
  const uint64_t seed = Mix64(target + 0x9e37ULL);
  planted_.clear();
  for (int v = 0; v < vnodes; ++v) {
    uint64_t pos = HashCombine(seed, static_cast<uint64_t>(v));
    while (probe && (Occupied(pos) || std::ranges::find(planted_, pos) != planted_.end())) {
      pos = Mix64(pos);
    }
    planted_.push_back(pos);
  }
  std::ranges::sort(planted_);
}

bool HashRing::MergePlanted(BrickId target) {
  // From the back: every vnode moves at most once, into the slots the
  // resize opened, with no second buffer.
  size_t ring_left = ring_.size();
  size_t planted_left = planted_.size();
  ring_.resize(ring_left + planted_left);
  size_t out = ring_.size();
  bool clash = false;
  while (planted_left > 0) {
    const uint64_t pos = planted_[planted_left - 1];
    if (ring_left > 0 && ring_[ring_left - 1].position >= pos) {
      clash |= ring_[ring_left - 1].position == pos;
      ring_[--out] = ring_[--ring_left];
    } else {
      ring_[--out] = Vnode{.position = pos, .target = target};
      --planted_left;
    }
  }
  return !clash;
}

void HashRing::AddTarget(BrickId target, double weight) {
  auto slot = std::ranges::lower_bound(targets_, target, {}, &TargetVnodes::target);
  if (slot != targets_.end() && slot->target == target) {
    return;
  }
  // clamp(int(vnodes_ * weight), 4, 4 * vnodes_), clamped before the
  // conversion so that a NaN or huge weight (a hostile snapshot's) cannot
  // overflow the int.
  const double scaled = static_cast<double>(vnodes_) * weight;
  const int vnodes = scaled >= 4.0 * vnodes_ ? 4 * vnodes_
                     : scaled > 4.0          ? static_cast<int>(scaled)
                                             : 4;
  targets_.insert(slot, TargetVnodes{.target = target, .vnodes = vnodes});
  PlantPositions(target, vnodes, /*probe=*/false);
  if (std::ranges::adjacent_find(planted_) == planted_.end() && MergePlanted(target)) {
    return;
  }
  // A (vanishingly rare) collision: take the target's vnodes off again, plant
  // them in order, probing each past the ring and past this target's earlier
  // vnodes, and merge those.
  EraseVnodes(target);
  PlantPositions(target, vnodes, /*probe=*/true);
  MergePlanted(target);
}

void HashRing::EraseVnodes(BrickId target) {
  std::erase_if(ring_, [target](const Vnode& vnode) { return vnode.target == target; });
}

void HashRing::RemoveTarget(BrickId target) {
  auto slot = std::ranges::lower_bound(targets_, target, {}, &TargetVnodes::target);
  if (slot == targets_.end() || slot->target != target) {
    return;
  }
  targets_.erase(slot);
  EraseVnodes(target);
}

bool HashRing::HasTarget(BrickId target) const { return VnodeCount(target) != 0; }

int HashRing::VnodeCount(BrickId target) const {
  auto slot = std::ranges::lower_bound(targets_, target, {}, &TargetVnodes::target);
  return slot == targets_.end() || slot->target != target ? 0 : slot->vnodes;
}

size_t HashRing::Locate(uint64_t key_hash, std::span<BrickId> out) const {
  if (ring_.empty()) {
    return 0;
  }
  size_t want = std::min(out.size(), targets_.size());
  size_t found = 0;
  size_t at = static_cast<size_t>(
      std::ranges::lower_bound(ring_, key_hash, {}, &Vnode::position) - ring_.begin());
  size_t steps = 0;
  while (found < want && steps < 2 * ring_.size()) {
    if (at == ring_.size()) {
      at = 0;
    }
    BrickId candidate = ring_[at].target;
    std::span<const BrickId> taken = out.first(found);
    if (std::ranges::find(taken, candidate) == taken.end()) {
      out[found++] = candidate;
    }
    ++at;
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
  out.reserve(targets_.size());
  for (const TargetVnodes& planted : targets_) {
    out.push_back(planted.target);
  }
  return out;
}

}  // namespace themis
