#include "src/dfs/flavors/ceph_like.h"

#include <algorithm>
#include <span>

#include "src/common/rng.h"
#include "src/common/strings.h"

namespace themis {

ClusterConfig CephLikeCluster::DefaultConfig() {
  ClusterConfig config;
  config.native_threshold = 0.12;  // mgr balancer aims tighter than HDFS
  // "Real time" balancing (paper §4.3) = the mgr balancer's short sleep
  // interval (60 s), not a check on every single client operation.
  config.balancer_period = Seconds(60);
  return config;
}

CephLikeCluster::CephLikeCluster(ClusterConfig config)
    : DfsCluster(config, Flavor::kCeph, "ceph-like"), crush_(256) {
  BuildInitialTopology();
}

void CephLikeCluster::OnTopologyChangedInternal() {
  // CRUSH weights follow device capacity; gone and non-serving devices leave
  // the map (the serving list is sorted by id).
  const std::vector<BrickId>& serving = ServingBricks();
  for (BrickId id : crush_.Targets()) {
    if (!std::ranges::binary_search(serving, id)) {
      crush_.RemoveTarget(id);
    }
  }
  for (BrickId id : serving) {
    const Brick* brick = FindBrick(id);
    crush_.SetTargetWeight(id, static_cast<double>(brick->capacity_bytes) /
                                   static_cast<double>(kGiB));
  }
}

ReplicaSet CephLikeCluster::PlaceChunk(const std::string& path, uint32_t chunk_index,
                                       uint64_t bytes) {
  BrickId mapped[kReplication];
  const uint32_t pg = crush_.PgOf(HashBytes(Mix64(chunk_index + 0x12345ULL), path));
  const size_t mapped_count = crush_.Map(pg, mapped);
  ReplicaSet chosen;
  for (BrickId id : std::span<const BrickId>(mapped, mapped_count)) {
    const Brick* brick = FindBrick(id);
    if (brick != nullptr && brick->online && brick->FreeBytes() >= bytes) {
      chosen.push_back(id);
    }
  }
  if (chosen.empty()) {
    // CRUSH targets are full: fall back to any device with room (Ceph would
    // return ENOSPC per device and retry remapped).
    FillFromServingBricks(bytes, chosen);
  }
  return chosen;
}

bool CephLikeCluster::BuildRebalancePlan(MigrationPlan& plan) {
  // The upmap balancer pins PGs mapped to overfull devices onto underfull
  // ones, then backfills the data. We pin here; the base leveler then plans
  // the chunk moves that the backfill would perform.
  (void)plan;
  EmitBalancerState(BalancerState::kCephUpmapCompute);
  const std::vector<BrickId>& serving = ServingBricks();
  uint64_t total_capacity = TotalCapacityBytes();
  if (serving.size() < 2 || total_capacity == 0) {
    return false;
  }
  double fleet = static_cast<double>(TotalServingUsedBytes()) /
                 static_cast<double>(total_capacity);
  BrickId most_loaded = kInvalidBrick;
  BrickId least_loaded = kInvalidBrick;
  double max_frac = -1.0;
  double min_frac = 2.0;
  for (BrickId id : serving) {
    double frac = FindBrick(id)->UsedFraction();
    if (frac > max_frac) {
      max_frac = frac;
      most_loaded = id;
    }
    if (frac < min_frac) {
      min_frac = frac;
      least_loaded = id;
    }
  }
  if (most_loaded != kInvalidBrick && least_loaded != kInvalidBrick &&
      max_frac > fleet + BalanceTolerance()) {
    // Pin a handful of PGs whose CRUSH primary is the overfull device.
    int pinned = 0;
    for (uint32_t pg = 0; pg < crush_.pg_count() && pinned < 8; ++pg) {
      BrickId primary = kInvalidBrick;
      if (crush_.Map(pg, std::span<BrickId>(&primary, 1)) == 1 && primary == most_loaded) {
        crush_.Upmap(pg, least_loaded);
        ++pinned;
      }
    }
  }
  return true;
}

void CephLikeCluster::OnBalancerRestarted() {
  // mgr startup sanity pass: drop pins whose target device is gone or down,
  // so the resumed balancer never backfills toward a dead OSD.
  std::vector<uint32_t> stale;
  for (const auto& [pg, target] : crush_.upmaps()) {
    const Brick* brick = FindBrick(target);
    if (brick == nullptr || !brick->online) {
      stale.push_back(pg);
    }
  }
  for (uint32_t pg : stale) {
    crush_.ClearUpmap(pg);
  }
}

void CephLikeCluster::SaveFlavorState(SnapshotWriter& writer) const {
  writer.U64(crush_.upmaps().size());
  for (const auto& [pg, target] : crush_.upmaps()) {
    writer.U32(pg);
    writer.U32(target);
  }
}

Status CephLikeCluster::RestoreFlavorState(SnapshotReader& reader) {
  // Weights were already recomputed from the restored topology by the base
  // restore's OnTopologyChangedInternal call; only the pins are history.
  crush_.ClearAllUpmaps();
  uint64_t count = reader.Count(4 + 4);
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    uint32_t pg = reader.U32();
    BrickId target = reader.U32();
    if (reader.ok() && !crush_.HasTarget(target)) {
      reader.Fail(Sprintf("upmap pins pg %u to unknown crush target %u", pg,
                          target));
      break;
    }
    crush_.Upmap(pg, target);
  }
  return reader.status();
}

}  // namespace themis
