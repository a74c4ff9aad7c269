#include "src/dfs/flavors/gluster_like.h"

#include "src/common/bytes.h"
#include "src/common/strings.h"

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
  InvalidateHomes();
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
  BrickId primary = layout_.Locate(DhtLayout::HashName(path) + chunk_index * 0x9e3779b9u);
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

void GlusterLikeCluster::OnRenamed(const Operation& op, bool is_file) {
  // If the new name hashes to a different brick, DHT leaves a linkfile on the
  // new hashed brick pointing at the data until a rebalance migrates it.
  if (!is_file || layout_.empty()) {
    return;
  }
  BrickId old_brick = layout_.Locate(DhtLayout::HashName(NormalizePath(op.path)));
  BrickId new_brick = layout_.Locate(DhtLayout::HashName(NormalizePath(op.path2)));
  if (old_brick != new_brick) {
    Brick* brick = FindBrick(new_brick);
    if (brick != nullptr) {
      brick->linkfiles += 1;
      AccreteBrickBytes(brick, kLinkfileBytes);
    }
  }
}

bool GlusterLikeCluster::BuildRebalancePlan(MigrationPlan& plan) {
  // migrate-data: move each file's primary replica to its hashed brick when
  // the layout says it now belongs elsewhere; the base levels the remainder.
  EmitBalancerState(BalancerState::kGlusterFixLayout);
  if (layout_.empty()) {
    return false;
  }
  PlanHoming(plan);
  // Each data move is paired with the unlink of the stale linkfile — the
  // exact code path of failure #1 (Fig. 11). When healthy this is a
  // metadata-only cleanup; the injected bug turns it into a destructive
  // unlink of the freshly migrated data.
  MigrationPlan paired;
  paired.reserve(2 * plan.size());
  for (const ChunkMove& move : plan) {
    paired.push_back(move);
    ChunkMove& unlink = paired.emplace_back(move);
    unlink.bytes = kLinkfileBytes;
    unlink.is_linkfile = true;
  }
  plan.swap(paired);
  return true;
}

BrickId GlusterLikeCluster::HomeBrick(FileId file, uint32_t chunk_index,
                                      const std::string* path) const {
  std::string resolved;
  if (path == nullptr) {
    resolved = tree().PathOf(file);
    path = &resolved;
  }
  if (path->empty()) {
    return kInvalidBrick;
  }
  return layout_.Locate(DhtLayout::HashName(*path) + chunk_index * 0x9e3779b9u);
}

void GlusterLikeCluster::OnRebalanceRoundDone() {
  // A completed rebalance reconciles linkfiles: stale ones are unlinked.
  for (const auto& [id, brick] : bricks()) {
    if (brick.linkfiles > 0) {
      Brick* mutable_brick = FindBrick(id);
      uint64_t reclaimed = static_cast<uint64_t>(mutable_brick->linkfiles) * kLinkfileBytes;
      ReleaseBrickBytes(mutable_brick, reclaimed);
      mutable_brick->linkfiles = 0;
    }
  }
}

void GlusterLikeCluster::OnBalancerRestarted() {
  // Rebalance restart performs fix-layout first: hash ranges are recomputed
  // from the current topology before migrate-data resumes.
  OnTopologyChangedInternal();
}

uint32_t GlusterLikeCluster::live_linkfiles() const {
  uint32_t total = 0;
  for (const auto& [id, brick] : bricks()) {
    total += brick.linkfiles;
  }
  return total;
}

}  // namespace themis
