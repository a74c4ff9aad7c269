#include "src/dfs/placement/crush_map.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"

namespace themis {

CrushMap::CrushMap(uint32_t pg_count)
    : pg_count_(pg_count > 0 ? pg_count : 1), raw_maps_(pg_count_) {}

void CrushMap::SetTargetWeight(BrickId target, double weight) {
  if (weight <= 0.0) {
    if (weights_.erase(target) != 0) {
      InvalidateRawMaps();
    }
    return;
  }
  auto [it, inserted] = weights_.try_emplace(target, weight);
  if (inserted || it->second != weight) {
    it->second = weight;
    InvalidateRawMaps();
  }
}

void CrushMap::RemoveTarget(BrickId target) {
  if (weights_.erase(target) != 0) {
    InvalidateRawMaps();
  }
  // Upmaps pointing at a vanished target are stale; drop them.
  for (auto it = upmaps_.begin(); it != upmaps_.end();) {
    if (it->second == target) {
      it = upmaps_.erase(it);
    } else {
      ++it;
    }
  }
}

bool CrushMap::HasTarget(BrickId target) const { return weights_.count(target) != 0; }

double CrushMap::TargetWeight(BrickId target) const {
  auto it = weights_.find(target);
  return it == weights_.end() ? 0.0 : it->second;
}

void CrushMap::InvalidateRawMaps() {
  for (CachedMapping& cached : raw_maps_) {
    cached.want = 0;
  }
}

std::span<const BrickId> CrushMap::RawMap(uint32_t pg, int replicas) const {
  if (weights_.empty() || replicas <= 0) {
    return {};
  }
  pg %= pg_count_;
  size_t want = std::min(static_cast<size_t>(replicas), weights_.size());
  // Each round either adds one target or ends the mapping, and its pick
  // depends only on the picks before it. So the mapping onto fewer targets
  // is a prefix of the mapping onto more, and one entry serves them all.
  CachedMapping& cached = raw_maps_[pg];
  if (cached.want < want) {
    ComputeRawMap(pg, want, cached.targets);
    cached.want = want;
  }
  return std::span<const BrickId>(cached.targets).first(std::min(want, cached.targets.size()));
}

void CrushMap::ComputeRawMap(uint32_t pg, size_t want, std::vector<BrickId>& out) const {
  out.clear();
  for (uint32_t round = 0; out.size() < want && round < 8 * want; ++round) {
    // straw2: draw = ln(u) / weight, u in (0,1]; argmax wins.
    BrickId best = kInvalidBrick;
    double best_draw = -1e300;
    for (const auto& [target, weight] : weights_) {
      bool taken = false;
      for (BrickId b : out) {
        if (b == target) {
          taken = true;
          break;
        }
      }
      if (taken) {
        continue;
      }
      // Final Mix64 pass: HashCombine alone is too linear in its seed, which
      // correlates the per-target draws and skews the weight proportionality.
      uint64_t h =
          Mix64(HashCombine(HashCombine(Mix64(pg + 0x5bd1ULL), round), target));
      // Map to (0, 1]: add 1 so u never hits exactly 0.
      double u = (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
      double draw = std::log(u) / weight;
      if (draw > best_draw) {
        best_draw = draw;
        best = target;
      }
    }
    if (best == kInvalidBrick) {
      break;
    }
    out.push_back(best);
  }
}

size_t CrushMap::Map(uint32_t pg, std::span<BrickId> out) const {
  pg %= pg_count_;
  std::span<const BrickId> raw = RawMap(pg, static_cast<int>(out.size()));
  std::ranges::copy(raw, out.begin());
  std::span<BrickId> mapped = out.first(raw.size());
  auto it = upmaps_.find(pg);
  if (it == upmaps_.end() || mapped.empty()) {
    return mapped.size();
  }
  BrickId pinned = it->second;
  if (weights_.count(pinned) == 0) {
    return mapped.size();  // stale pin
  }
  // Move `pinned` to the primary slot; if it was not in the set, replace the
  // primary with it.
  for (size_t i = 0; i < mapped.size(); ++i) {
    if (mapped[i] == pinned) {
      std::swap(mapped[0], mapped[i]);
      return mapped.size();
    }
  }
  mapped[0] = pinned;
  return mapped.size();
}

std::vector<BrickId> CrushMap::Map(uint32_t pg, int replicas) const {
  std::vector<BrickId> out(static_cast<size_t>(std::max(replicas, 0)));
  out.resize(Map(pg, std::span<BrickId>(out)));
  return out;
}

void CrushMap::Upmap(uint32_t pg, BrickId target) { upmaps_[pg % pg_count_] = target; }

void CrushMap::ClearUpmap(uint32_t pg) { upmaps_.erase(pg % pg_count_); }

void CrushMap::ClearAllUpmaps() { upmaps_.clear(); }

std::vector<BrickId> CrushMap::Targets() const {
  std::vector<BrickId> out;
  out.reserve(weights_.size());
  for (const auto& [target, weight] : weights_) {
    (void)weight;
    out.push_back(target);
  }
  return out;
}

}  // namespace themis
