#include "src/dfs/placement/dht_layout.h"

#include <string_view>

#include "src/common/rng.h"

namespace themis {

void DhtLayout::Recompute(const std::vector<std::pair<BrickId, double>>& bricks) {
  ranges_.clear();
  ++generation_;
  double total_weight = 0.0;
  for (const auto& [brick, weight] : bricks) {
    (void)brick;
    if (weight > 0.0) {
      total_weight += weight;
    }
  }
  if (total_weight <= 0.0) {
    return;
  }
  const uint64_t space = 1ULL << 32;
  uint64_t cursor = 0;
  size_t live = 0;
  for (const auto& [brick, weight] : bricks) {
    (void)brick;
    if (weight > 0.0) {
      ++live;
    }
  }
  size_t emitted = 0;
  for (const auto& [brick, weight] : bricks) {
    if (weight <= 0.0) {
      continue;
    }
    ++emitted;
    uint64_t span = (emitted == live)
                        ? space - cursor  // last brick absorbs rounding
                        : static_cast<uint64_t>(static_cast<double>(space) *
                                                (weight / total_weight));
    if (span == 0) {
      span = 1;
    }
    if (cursor + span > space) {
      span = space - cursor;
    }
    if (span == 0) {
      continue;
    }
    ranges_.push_back(DhtRange{.start = static_cast<uint32_t>(cursor),
                               .end = static_cast<uint32_t>(cursor + span - 1),
                               .brick = brick});
    cursor += span;
  }
}

BrickId DhtLayout::Locate(uint32_t name_hash) const {
  for (const DhtRange& range : ranges_) {
    if (name_hash >= range.start && name_hash <= range.end) {
      return range.brick;
    }
  }
  return ranges_.empty() ? kInvalidBrick : ranges_.back().brick;
}

uint32_t DhtLayout::HashName(std::string_view name) {
  uint64_t h = HashBytes(0xcbf29ce484222325ULL, name);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

}  // namespace themis
