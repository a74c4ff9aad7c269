#include "src/dfs/placement/geo_tree.h"

#include <algorithm>

namespace themis {

GeoTreeEngine::GeoTreeEngine(int sites, int racks_per_site, int group_size)
    : sites_(std::max(sites, 1)),
      racks_per_site_(std::max(racks_per_site, 1)),
      group_size_(std::max(group_size, 1)),
      site_counts_(static_cast<size_t>(sites_), 0),
      rack_counts_(static_cast<size_t>(sites_),
                   std::vector<uint32_t>(static_cast<size_t>(racks_per_site_), 0)) {}

void GeoTreeEngine::EnsureNodeSlots(NodeId id) {
  if (assigned_.size() <= id) {
    assigned_.resize(id + 1, 0);
    node_tag_.resize(id + 1);
    node_group_.resize(id + 1, 0xffffffffu);
  }
}

uint32_t GeoTreeEngine::AssignNode(NodeId id) {
  EnsureNodeSlots(id);
  uint16_t site = 0;
  for (uint16_t s = 1; s < site_counts_.size(); ++s) {
    if (site_counts_[s] < site_counts_[site]) {
      site = s;
    }
  }
  uint16_t rack = 0;
  for (uint16_t r = 1; r < rack_counts_[site].size(); ++r) {
    if (rack_counts_[site][r] < rack_counts_[site][rack]) {
      rack = r;
    }
  }
  uint32_t group = 0xffffffffu;
  for (uint32_t g = 0; g < group_members_.size(); ++g) {
    if (static_cast<int>(group_members_[g].size()) >= group_size_) {
      continue;
    }
    if (group == 0xffffffffu ||
        group_members_[g].size() < group_members_[group].size()) {
      group = g;
    }
  }
  if (group == 0xffffffffu) {
    group = static_cast<uint32_t>(group_members_.size());
    group_members_.emplace_back();
  }
  assigned_[id] = 1;
  node_tag_[id] = GeoTag{site, rack};
  node_group_[id] = group;
  ++site_counts_[site];
  ++rack_counts_[site][rack];
  group_members_[group].push_back(id);
  ++node_count_;
  return group;
}

void GeoTreeEngine::RemoveNode(NodeId id) {
  if (!Contains(id)) {
    return;
  }
  GeoTag tag = node_tag_[id];
  uint32_t group = node_group_[id];
  assigned_[id] = 0;
  node_group_[id] = 0xffffffffu;
  --site_counts_[tag.site];
  --rack_counts_[tag.site][tag.rack];
  std::vector<NodeId>& members = group_members_[group];
  members.erase(std::remove(members.begin(), members.end(), id), members.end());
  --node_count_;
}

void GeoTreeEngine::RestoreGroups(uint32_t count) { group_members_.resize(count); }

void GeoTreeEngine::RestoreNode(NodeId id, GeoTag tag, uint32_t group) {
  EnsureNodeSlots(id);
  assigned_[id] = 1;
  node_tag_[id] = tag;
  node_group_[id] = group;
  ++site_counts_[tag.site];
  ++rack_counts_[tag.site][tag.rack];
  group_members_[group].push_back(id);
  ++node_count_;
}

void GeoTreeEngine::Clear() {
  node_count_ = 0;
  assigned_.clear();
  node_tag_.clear();
  node_group_.clear();
  std::fill(site_counts_.begin(), site_counts_.end(), 0);
  for (auto& racks : rack_counts_) {
    std::fill(racks.begin(), racks.end(), 0);
  }
  group_members_.clear();
}

const std::vector<NodeId>& GeoTreeEngine::GroupMembers(uint32_t group) const {
  static const std::vector<NodeId> kEmpty;
  return group < group_members_.size() ? group_members_[group] : kEmpty;
}

}  // namespace themis
