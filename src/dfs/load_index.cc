#include "src/dfs/load_index.h"

#include <algorithm>

namespace themis {

void LoadIndex::Clear() {
  serving_bricks_.clear();
  serving_nodes_.clear();
  nodes_.clear();
  brick_fraction_.clear();
  ++epoch_;
}

void LoadIndex::AddNode(NodeId id, bool serving) {
  if (nodes_.size() <= id) {
    nodes_.resize(static_cast<size_t>(id) + 1);
  }
  nodes_[id] = NodeLoad{.serving = serving};
  if (serving) {
    serving_nodes_.push_back(id);
  }
  ++epoch_;
}

void LoadIndex::AddBrick(const Brick& brick) {
  if (brick_fraction_.size() <= brick.id) {
    brick_fraction_.resize(static_cast<size_t>(brick.id) + 1, 0.0);
  }
  brick_fraction_[brick.id] = brick.UsedFraction();
  // Every brick gets a node slot, so the inline byte and capacity updates
  // never bounds-check.
  if (nodes_.size() <= brick.node) {
    nodes_.resize(static_cast<size_t>(brick.node) + 1);
  }
  NodeLoad& node = nodes_[brick.node];
  if (brick.online) {
    node.used_online += brick.used_bytes;
    node.cap_online += brick.capacity_bytes;
    if (node.serving) {
      serving_bricks_.push_back(brick.id);
    }
  }
  ++epoch_;
}

void LoadIndex::OnBrickOffline(const Brick& brick) {
  NodeLoad& node = nodes_[brick.node];
  node.used_online -= brick.used_bytes;
  node.cap_online -= brick.capacity_bytes;
  if (node.serving) {
    SetSortedMember(serving_bricks_, brick.id, false);
  }
  ++epoch_;
}

void LoadIndex::SetNodeServing(NodeId id, bool serving,
                               std::span<const BrickId> online_bricks) {
  nodes_[id].serving = serving;
  SetSortedMember(serving_nodes_, id, serving);
  for (BrickId brick : online_bricks) {
    SetSortedMember(serving_bricks_, brick, serving);
  }
  ++epoch_;
}

const LoadIndex::Stats& LoadIndex::stats() const {
  if (stats_epoch_ == epoch_) {
    return stats_;
  }
  Stats stats;
  uint32_t nodes = 0;  // serving nodes with online capacity
  double max_fraction = 0.0;
  for (NodeId id : serving_nodes_) {
    const NodeLoad& node = nodes_[id];
    stats.fleet_used += node.used_online;
    stats.fleet_cap += node.cap_online;
    if (node.cap_online == 0) {
      continue;
    }
    double fraction =
        static_cast<double>(node.used_online) / static_cast<double>(node.cap_online);
    if (nodes == 0 || fraction > max_fraction) {
      max_fraction = fraction;
    }
    ++nodes;
  }
  if (nodes >= 2 && stats.fleet_cap > 0) {
    double fleet =
        static_cast<double>(stats.fleet_used) / static_cast<double>(stats.fleet_cap);
    stats.spread = std::max(0.0, max_fraction - fleet);
  }
  stats_epoch_ = epoch_;
  stats_ = stats;
  return stats_;
}

BrickId LoadIndex::HottestServingBrick() const {
  // serving_bricks_ is in id order, so the strict max keeps the smallest id
  // on fraction ties.
  BrickId best = kInvalidBrick;
  double best_fraction = -1.0;
  for (BrickId id : serving_bricks_) {
    if (brick_fraction_[id] > best_fraction) {
      best_fraction = brick_fraction_[id];
      best = id;
    }
  }
  return best;
}

}  // namespace themis
