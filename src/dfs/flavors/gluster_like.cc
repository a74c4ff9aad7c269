#include "src/dfs/flavors/gluster_like.h"

#include <algorithm>
#include <map>

#include "src/common/bytes.h"

namespace themis {

ClusterConfig GlusterLikeCluster::DefaultConfig() {
  ClusterConfig config;
  config.native_threshold = 0.20;  // GlusterFS balancer default
  config.balancer_period = Minutes(2);  // periodic timing task (paper §4.3)
  return config;
}

GlusterLikeCluster::GlusterLikeCluster(ClusterConfig config)
    : DfsCluster(config, Flavor::kGluster, "gluster-like") {
  BuildInitialTopology();
}

void GlusterLikeCluster::OnTopologyChangedInternal() {
  // fix-layout: reassign hash ranges proportional to brick capacity.
  std::vector<std::pair<BrickId, double>> weights;
  for (BrickId id : ServingBricks()) {
    const Brick* brick = FindBrick(id);
    weights.emplace_back(id, static_cast<double>(brick->capacity_bytes));
  }
  layout_.Recompute(weights);
}

BrickId GlusterLikeCluster::ReplicaPartner(BrickId primary) const {
  const std::vector<DhtRange>& ranges = layout_.ranges();
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].brick == primary) {
      return ranges[(i + 1) % ranges.size()].brick;
    }
  }
  return kInvalidBrick;
}

ReplicaSet GlusterLikeCluster::PlaceChunk(const std::string& path, uint32_t chunk_index,
                                          uint64_t bytes) {
  if (layout_.empty()) {
    return {};
  }
  // DHT places the whole file on its hashed brick; multi-chunk files stripe
  // across consecutive ranges.
  uint32_t hash = DhtLayout::HashName(path) + chunk_index * 0x9e3779b9u;
  BrickId primary = layout_.Locate(hash);
  ReplicaSet chosen;
  const Brick* brick = FindBrick(primary);
  if (brick != nullptr && brick->online && brick->FreeBytes() >= bytes) {
    chosen.push_back(primary);
  }
  BrickId partner = ReplicaPartner(primary);
  const Brick* partner_brick = FindBrick(partner);
  if (partner_brick != nullptr && partner != primary && partner_brick->online &&
      partner_brick->FreeBytes() >= bytes) {
    chosen.push_back(partner);
  }
  if (!chosen.empty()) {
    return chosen;
  }
  // Hashed brick is full: gluster writes to another brick and leaves a
  // linkfile on the hashed one.
  for (BrickId id : ServingBricks()) {
    const Brick* candidate = FindBrick(id);
    if (id != primary && candidate->FreeBytes() >= bytes) {
      chosen.push_back(id);
      if (brick != nullptr && brick->online) {
        ++live_linkfiles_;
        Brick* hashed = FindBrick(primary);
        hashed->linkfiles += 1;
        AccreteBrickBytes(hashed, kLinkfileBytes);
      }
      if (static_cast<int>(chosen.size()) >= kReplication) {
        break;
      }
    }
  }
  return chosen;
}

void GlusterLikeCluster::OnFileRenamed(FileId file, const std::string& from,
                                       const std::string& to) {
  (void)file;
  // If the new name hashes to a different brick, DHT leaves a linkfile on the
  // new hashed brick pointing at the data until a rebalance migrates it.
  if (layout_.empty()) {
    return;
  }
  BrickId old_brick = layout_.Locate(DhtLayout::HashName(from));
  BrickId new_brick = layout_.Locate(DhtLayout::HashName(to));
  if (old_brick != new_brick) {
    Brick* brick = FindBrick(new_brick);
    if (brick != nullptr) {
      ++live_linkfiles_;
      brick->linkfiles += 1;
      AccreteBrickBytes(brick, kLinkfileBytes);
    }
  }
}

MigrationPlan GlusterLikeCluster::BuildRebalancePlan() {
  // migrate-data: move each file's primary replica to its hashed brick when
  // the layout says it now belongs elsewhere, then level the remainder.
  // cluster.min-free-disk semantics: never migrate data *into* a brick that
  // is already beyond the fleet utilization plus the balance tolerance —
  // without this check the DHT keeps re-hashing data onto hot bricks and a
  // healthy cluster never reaches a balanced fixpoint.
  EmitBalancerState(BalancerState::kGlusterFixLayout);
  MigrationPlan plan;
  if (layout_.empty()) {
    return plan;
  }
  uint64_t total_used = TotalServingUsedBytes();
  uint64_t total_capacity = TotalCapacityBytes();
  double fleet = total_capacity == 0 ? 0.0
                                     : static_cast<double>(total_used) /
                                           static_cast<double>(total_capacity);
  double receive_limit = fleet + config_.native_threshold * 0.5;
  std::map<BrickId, uint64_t> planned_inflow;  // cumulative per-target bytes
  for (const auto& [file, layout] : file_layouts()) {
    std::string path = tree().PathOf(file);
    if (path.empty()) {
      continue;
    }
    for (uint32_t i = 0; i < layout.chunks.size(); ++i) {
      const ChunkPlacement& chunk = layout.chunks[i];
      if (chunk.replicas.empty()) {
        continue;
      }
      uint32_t hash = DhtLayout::HashName(path) + i * 0x9e3779b9u;
      BrickId expected = layout_.Locate(hash);
      BrickId actual = chunk.replicas.front();
      if (expected == actual || expected == kInvalidBrick) {
        continue;
      }
      const Brick* target = FindBrick(expected);
      if (target == nullptr || !target->online || target->FreeBytes() < chunk.bytes ||
          chunk.HasReplicaOn(expected)) {
        continue;
      }
      double target_after =
          static_cast<double>(target->used_bytes + planned_inflow[expected] +
                              chunk.bytes) /
          static_cast<double>(target->capacity_bytes);
      if (target_after > receive_limit) {
        continue;  // min-free-disk: leave the file where it is
      }
      planned_inflow[expected] += chunk.bytes;
      plan.push_back(ChunkMove{.file = file,
                               .chunk_index = i,
                               .from = actual,
                               .to = expected,
                               .bytes = chunk.bytes,
                               .reason = MoveReason::kRebalance,
                               .hash_driven = true});
      // The data move is paired with the unlink of the stale linkfile — the
      // exact code path of failure #1 (Fig. 11). When healthy this is a
      // metadata-only cleanup; the injected bug turns it into a destructive
      // unlink of the freshly migrated data.
      plan.push_back(ChunkMove{.file = file,
                               .chunk_index = i,
                               .from = actual,
                               .to = expected,
                               .bytes = kLinkfileBytes,
                               .reason = MoveReason::kRebalance,
                               .is_linkfile = true,
                               .hash_driven = true});
    }
  }
  MigrationPlan leveling =
      PlanLevelingByUsage(config_.native_threshold * 0.5, &planned_inflow);
  plan.insert(plan.end(), leveling.begin(), leveling.end());
  return plan;
}

bool GlusterLikeCluster::ChunkPinnedToBrick(FileId file, uint32_t chunk_index,
                                            BrickId brick) const {
  // A replica sitting on its DHT-hashed brick is where migrate-data wants
  // it; the leveler must not move it or the next rebalance moves it back.
  if (layout_.empty()) {
    return false;
  }
  std::string path = tree().PathOf(file);
  if (path.empty()) {
    return false;
  }
  uint32_t hash = DhtLayout::HashName(path) + chunk_index * 0x9e3779b9u;
  return layout_.Locate(hash) == brick;
}

void GlusterLikeCluster::OnRebalanceRoundDone() {
  // A completed rebalance reconciles linkfiles: stale ones are unlinked.
  for (const auto& [id, brick] : bricks()) {
    if (brick.linkfiles > 0) {
      Brick* mutable_brick = FindBrick(id);
      uint64_t reclaimed = static_cast<uint64_t>(mutable_brick->linkfiles) * kLinkfileBytes;
      ReleaseBrickBytes(mutable_brick, reclaimed);
      live_linkfiles_ -= std::min(live_linkfiles_, mutable_brick->linkfiles);
      mutable_brick->linkfiles = 0;
    }
  }
}

void GlusterLikeCluster::OnBalancerRestarted() {
  // Rebalance restart performs fix-layout first: hash ranges are recomputed
  // from the current topology before migrate-data resumes.
  OnTopologyChangedInternal();
}

void GlusterLikeCluster::SaveFlavorState(SnapshotWriter& writer) const {
  writer.U32(live_linkfiles_);
}

Status GlusterLikeCluster::RestoreFlavorState(SnapshotReader& reader) {
  live_linkfiles_ = reader.U32();
  return reader.status();
}

}  // namespace themis
