#include "src/dfs/flavors/leo_like.h"

#include <algorithm>
#include <span>

#include "src/common/rng.h"
#include "src/common/strings.h"

namespace themis {

ClusterConfig LeoLikeCluster::DefaultConfig() {
  ClusterConfig config;
  config.native_threshold = 0.15;
  config.balancer_period = Minutes(2);
  return config;
}

LeoLikeCluster::LeoLikeCluster(ClusterConfig config)
    : DfsCluster(config, Flavor::kLeo, "leo-like"), ring_(64) {
  BuildInitialTopology();
}

void LeoLikeCluster::OnTopologyChangedInternal() {
  // Ring arcs scale with device capacity; a capacity change re-plants the
  // target's virtual nodes (a LeoFS ring/weight update). The serving list
  // and ring_weights_ are both sorted by id and neither is copied: ring
  // edits leave the topology alone.
  bool ring_changed = false;
  const std::vector<BrickId>& serving = ServingBricks();
  std::erase_if(ring_weights_, [&](const PlantedWeight& planted) {
    if (std::ranges::binary_search(serving, planted.id)) {
      return false;
    }
    ring_.RemoveTarget(planted.id);
    ring_changed = true;
    return true;
  });
  for (BrickId id : serving) {
    double weight = static_cast<double>(FindBrick(id)->capacity_bytes) /
                    static_cast<double>(kBrickCapacity);
    auto it = std::ranges::lower_bound(ring_weights_, id, {}, &PlantedWeight::id);
    if (it != ring_weights_.end() && it->id == id) {
      bool stale = weight > it->weight * 1.25 || weight < it->weight * 0.8;
      if (!stale) {
        continue;
      }
      ring_.RemoveTarget(id);
      it->weight = weight;
    } else {
      ring_weights_.insert(it, PlantedWeight{.id = id, .weight = weight});
    }
    ring_.AddTarget(id, weight);
    ring_changed = true;
  }
  if (ring_changed) {
    InvalidateHomes();
  }
}

BrickId LeoLikeCluster::HomeBrick(FileId file, uint32_t chunk_index,
                                  const std::string* path) const {
  if (ring_.target_count() == 0) {
    return kInvalidBrick;
  }
  std::string resolved;
  if (path == nullptr) {
    resolved = tree().PathOf(file);
    path = &resolved;
  }
  return path->empty() ? kInvalidBrick : ring_.Primary(ObjectHash(*path, chunk_index));
}

uint64_t LeoLikeCluster::ObjectHash(const std::string& path, uint32_t chunk_index) {
  return HashBytes(Mix64(chunk_index * 2654435761ULL + 0xabcdULL), path);
}

ReplicaSet LeoLikeCluster::PlaceChunk(const std::string& path, uint32_t chunk_index,
                                      uint64_t bytes) {
  BrickId located[kReplication];
  const size_t located_count = ring_.Locate(ObjectHash(path, chunk_index), located);
  ReplicaSet chosen;
  for (BrickId id : std::span<const BrickId>(located, located_count)) {
    const Brick* brick = FindBrick(id);
    if (brick != nullptr && brick->online && brick->FreeBytes() >= bytes) {
      chosen.push_back(id);
    }
  }
  if (chosen.empty()) {
    // Ring targets full: walk the rest of the cluster for room.
    FillFromServingBricks(bytes, chosen);
  }
  return chosen;
}

bool LeoLikeCluster::BuildRebalancePlan(MigrationPlan& plan) {
  // rebalance-list: move every object whose ring position no longer matches
  // where it is stored (the arcs affected by ring changes).
  EmitBalancerState(BalancerState::kLeoRingPlan);
  if (ring_.target_count() == 0) {
    return false;
  }
  PlanHoming(plan);
  return true;
}

void LeoLikeCluster::OnBalancerRestarted() {
  // Takeover: reload the ring from the persisted plantings, dropping targets
  // that disappeared while the manager was down.
  ring_ = HashRing(64);
  InvalidateHomes();
  std::erase_if(ring_weights_,
                [this](const PlantedWeight& planted) { return FindBrick(planted.id) == nullptr; });
  for (const PlantedWeight& planted : ring_weights_) {
    ring_.AddTarget(planted.id, planted.weight);
  }
}

void LeoLikeCluster::SaveFlavorState(SnapshotWriter& writer) const {
  writer.U64(ring_weights_.size());
  for (const PlantedWeight& planted : ring_weights_) {
    writer.U32(planted.id);
    writer.F64(planted.weight);
  }
}

Status LeoLikeCluster::RestoreFlavorState(SnapshotReader& reader) {
  // The planted weights carry hysteresis history, so the ring recomputed by
  // the base restore is discarded and rebuilt from the saved plantings.
  ring_ = HashRing(64);
  ring_weights_.clear();
  InvalidateHomes();
  uint64_t count = reader.Count(4 + 8);
  ring_weights_.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    BrickId id = reader.U32();
    double weight = reader.F64();
    if (!reader.ok()) {
      break;
    }
    if (FindBrick(id) == nullptr) {
      reader.Fail(Sprintf("ring weight references unknown brick %u", id));
      break;
    }
    if (!ring_weights_.empty() && ring_weights_.back().id >= id) {
      reader.Fail(Sprintf("ring weight for brick %u is out of id order", id));
      break;
    }
    ring_.AddTarget(id, weight);
    ring_weights_.push_back(PlantedWeight{.id = id, .weight = weight});
  }
  return reader.status();
}

}  // namespace themis
