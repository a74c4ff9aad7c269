#include "src/dfs/flavors/geo_like.h"

#include <algorithm>
#include <map>

#include "src/common/rng.h"
#include "src/common/strings.h"

namespace themis {

namespace {

// Capacity classes for the heterogeneous fleet: 1x / 2x / 4x the standard
// brick capacity, spread deterministically over node ids. Roughly half the
// fleet stays at 1x so small bricks remain the common case.
constexpr uint64_t kCapacityMultipliers[4] = {1, 1, 2, 4};

// Site-failover moves per round. Rebalance is periodic, not per-op, but a
// 10k-node hot site could otherwise enqueue an unbounded rebalance-list.
constexpr size_t kMaxSiteMovesPerRound = 256;

// Bound on persisted scheduling-group indices and counts: a corrupt count
// must not size the engine's group table.
constexpr uint32_t kMaxSchedulingGroups = 1u << 20;

}  // namespace

ClusterConfig GeoLikeCluster::DefaultConfig() {
  ClusterConfig config;
  config.native_threshold = 0.10;
  config.balancer_period = Minutes(5);
  // EFBIG admission cap (32 chunks at the 2 GiB stripe unit). EOS-style
  // production deployments enforce one; without it a boundary
  // "write-the-free-space" op on a petabyte fleet costs O(fleet capacity)
  // in chunk placements, and per-op cost must stay O(1) at 10k nodes.
  config.max_file_size = 64 * kGiB;
  config.initial_storage_nodes = 48;
  config.min_storage_nodes = 8;
  config.max_storage_nodes = 96;
  return config;
}

GeoLikeCluster::GeoLikeCluster(ClusterConfig config)
    : DfsCluster(config, Flavor::kGeo, "geo-like"),
      engine_(kSites, kRacksPerSite, kGroupSize) {
  BuildInitialTopology();
}

void GeoLikeCluster::OnStorageNodeAdmitted(NodeId id) { engine_.AssignNode(id); }

uint64_t GeoLikeCluster::BrickCapacityFor(NodeId id) const {
  return kBrickCapacity * kCapacityMultipliers[Mix64(id) & 3];
}

void GeoLikeCluster::OnTopologyCleared() { engine_.Clear(); }

void GeoLikeCluster::OnStorageNodeDecommissioned(NodeId id) {
  // The decommissioned node frees its site/rack/group slot so future
  // admissions refill it; crashed nodes never take this path — they keep
  // their coordinates because a restart must bring them back where they were.
  if (engine_.Contains(id)) {
    engine_.RemoveNode(id);
  }
}

BrickId GeoLikeCluster::BrickWithRoom(NodeId node, uint64_t bytes) const {
  const StorageNode* sn = FindStorageNode(node);
  if (sn == nullptr) {
    return kInvalidBrick;
  }
  for (BrickId b : sn->bricks) {
    const Brick* brick = FindBrick(b);
    if (brick != nullptr && brick->online && brick->FreeBytes() >= bytes) {
      return b;
    }
  }
  return kInvalidBrick;
}

const std::vector<NodeId>& GeoLikeCluster::ServingMembers(uint32_t group) {
  serving_members_.clear();
  for (NodeId id : engine_.GroupMembers(group)) {
    const StorageNode* node = FindStorageNode(id);
    if (node != nullptr && node->Serving()) {
      serving_members_.push_back(id);
    }
  }
  return serving_members_;
}

double GeoLikeCluster::GroupFillFraction(uint32_t group) {
  uint64_t used = 0;
  uint64_t cap = 0;
  for (NodeId id : ServingMembers(group)) {
    for (BrickId b : FindStorageNode(id)->bricks) {
      const Brick* brick = FindBrick(b);
      if (brick != nullptr && brick->online) {
        used += brick->used_bytes;
        cap += brick->capacity_bytes;
      }
    }
  }
  return cap == 0 ? 1.0 : static_cast<double>(used) / static_cast<double>(cap);
}

void GeoLikeCluster::PickWithinGroup(uint32_t group, uint64_t hash, uint64_t bytes,
                                     ReplicaSet& chosen) {
  const std::vector<NodeId>& members = ServingMembers(group);
  if (members.empty()) {
    return;
  }
  size_t start = static_cast<size_t>(hash % members.size());
  int want = kReplication;
  // Pass 1: distinct sites only (the cross-site replica spread the
  // scheduling-group layout exists for). Pass 2 fills what is left.
  for (int pass = 0; pass < 2 && static_cast<int>(chosen.size()) < want; ++pass) {
    for (size_t i = 0; i < members.size(); ++i) {
      NodeId node = members[(start + i) % members.size()];
      BrickId brick = BrickWithRoom(node, bytes);
      if (brick == kInvalidBrick ||
          std::find(chosen.begin(), chosen.end(), brick) != chosen.end()) {
        continue;
      }
      if (pass == 0) {
        uint16_t site = engine_.TagOf(node).site;
        bool site_taken = false;
        for (BrickId existing : chosen) {
          const Brick* eb = FindBrick(existing);
          if (eb != nullptr && engine_.TagOf(eb->node).site == site) {
            site_taken = true;
            break;
          }
        }
        if (site_taken) {
          continue;
        }
      }
      chosen.push_back(brick);
      if (static_cast<int>(chosen.size()) >= want) {
        return;
      }
    }
  }
}

ReplicaSet GeoLikeCluster::PlaceChunk(const std::string& path, uint32_t chunk_index,
                                      uint64_t bytes) {
  ReplicaSet chosen;
  uint32_t groups = engine_.group_count();
  if (groups == 0) {
    return chosen;
  }
  uint64_t h = HashBytes(Mix64(chunk_index * 0x9e3779b97f4a7c15ULL + 0x6e05ULL), path);
  // Two-level placement: power-of-two-choices between two hash-derived
  // scheduling groups on fill fraction (one scan of each group's members),
  // then replica spread within the winner.
  uint32_t g1 = static_cast<uint32_t>(h % groups);
  uint32_t g2 = static_cast<uint32_t>((h >> 32) % groups);
  uint32_t group = g1;
  if (g2 != g1 && GroupFillFraction(g2) < GroupFillFraction(g1)) {
    group = g2;
  }
  PickWithinGroup(group, h, bytes, chosen);
  if (static_cast<int>(chosen.size()) >= kReplication) {
    return chosen;
  }
  // Preferred group full (or depleted by crashes): geo failover — try every
  // other group, nearest index first, before the flat fleet walk.
  for (uint32_t offset = 1; offset < groups; ++offset) {
    PickWithinGroup((group + offset) % groups, h, bytes, chosen);
    if (static_cast<int>(chosen.size()) >= kReplication) {
      return chosen;
    }
  }
  FillFromServingBricks(bytes, chosen);
  return chosen;
}

std::vector<std::pair<uint64_t, uint64_t>> GeoLikeCluster::PerSiteUsedCap() const {
  std::vector<std::pair<uint64_t, uint64_t>> sites(
      static_cast<size_t>(engine_.sites()), {0, 0});
  for (NodeId id : ServingStorageNodeIds()) {
    uint16_t site = engine_.TagOf(id).site;
    const StorageNode* node = FindStorageNode(id);
    if (site >= sites.size() || node == nullptr) {
      continue;
    }
    for (BrickId b : node->bricks) {
      const Brick* brick = FindBrick(b);
      if (brick != nullptr && brick->online) {
        sites[site].first += brick->used_bytes;
        sites[site].second += brick->capacity_bytes;
      }
    }
  }
  return sites;
}

bool GeoLikeCluster::BuildRebalancePlan(MigrationPlan& plan) {
  EmitBalancerState(BalancerState::kGeoSiteDrain);
  std::map<BrickId, uint64_t> planned_inflow;  // the receivers' room check
  // Stage 1: site failover. If the hottest site's utilization runs away from
  // the coldest's, drain the hottest site's fullest bricks toward the
  // coldest site's emptiest — group-mean leveling alone cannot see this
  // skew, because every scheduling group spans sites.
  std::vector<std::pair<uint64_t, uint64_t>> sites = PerSiteUsedCap();
  int hot = -1, cold = -1;
  double hot_frac = 0.0, cold_frac = 0.0;
  for (size_t s = 0; s < sites.size(); ++s) {
    if (sites[s].second == 0) {
      continue;
    }
    double frac = static_cast<double>(sites[s].first) /
                  static_cast<double>(sites[s].second);
    if (hot < 0 || frac > hot_frac) {
      hot = static_cast<int>(s);
      hot_frac = frac;
    }
    if (cold < 0 || frac < cold_frac) {
      cold = static_cast<int>(s);
      cold_frac = frac;
    }
  }
  if (hot >= 0 && cold >= 0 && hot != cold &&
      hot_frac - cold_frac > BalanceTolerance()) {
    struct SiteBrick {
      double fraction;
      BrickId id;
    };
    std::vector<SiteBrick> donors, receivers;
    for (BrickId id : ServingBricks()) {
      const Brick* brick = FindBrick(id);
      if (brick->capacity_bytes == 0) {
        continue;
      }
      uint16_t site = engine_.TagOf(brick->node).site;
      double fraction = static_cast<double>(brick->used_bytes) /
                        static_cast<double>(brick->capacity_bytes);
      if (site == hot) {
        donors.push_back({fraction, id});
      } else if (site == cold) {
        receivers.push_back({fraction, id});
      }
    }
    std::stable_sort(donors.begin(), donors.end(),
                     [](const SiteBrick& a, const SiteBrick& b) {
                       return a.fraction > b.fraction;
                     });
    std::stable_sort(receivers.begin(), receivers.end(),
                     [](const SiteBrick& a, const SiteBrick& b) {
                       return a.fraction < b.fraction;
                     });
    // Budget: close half the gap (the other half belongs to the next round —
    // oscillating past the mean is how real geo-schedulers thrash).
    uint64_t budget = static_cast<uint64_t>(
        (hot_frac - cold_frac) * 0.5 * static_cast<double>(sites[hot].second));
    size_t recv_idx = 0;
    for (const SiteBrick& donor : donors) {
      if (budget == 0 || recv_idx >= receivers.size() ||
          plan.size() >= kMaxSiteMovesPerRound) {
        break;
      }
      for (const auto& [file, chunk_index] : ChunksOnBrickRef(donor.id)) {
        if (budget == 0 || recv_idx >= receivers.size() ||
            plan.size() >= kMaxSiteMovesPerRound) {
          break;
        }
        const ChunkPlacement* chunk = FindChunk(file, chunk_index);
        if (chunk == nullptr) {
          continue;
        }
        // Advance past receivers without room for this chunk.
        BrickId to = kInvalidBrick;
        while (recv_idx < receivers.size()) {
          BrickId candidate = receivers[recv_idx].id;
          const Brick* rb = FindBrick(candidate);
          uint64_t inflow = planned_inflow[candidate];
          if (rb == nullptr || !rb->online ||
              rb->FreeBytes() < inflow + chunk->bytes) {
            ++recv_idx;
            continue;
          }
          to = candidate;
          break;
        }
        if (to == kInvalidBrick || chunk->HasReplicaOn(to)) {
          continue;
        }
        uint64_t moved = std::min(budget, chunk->bytes);
        budget -= moved;
        planned_inflow[to] += chunk->bytes;
        plan.push_back(ChunkMove{.file = file,
                                 .chunk_index = chunk_index,
                                 .from = donor.id,
                                 .to = to,
                                 .bytes = chunk->bytes,
                                 .reason = MoveReason::kRebalance,
                                 .hash_driven = false});
      }
    }
  }
  // Stage 2, the base leveler, counts the site stage's moves against each
  // receiver's budget.
  return true;
}

void GeoLikeCluster::SaveFlavorState(SnapshotWriter& writer) const {
  // The group count is saved on its own: a decommission can empty the last
  // scheduling group, and admission still counts it.
  writer.U32(engine_.group_count());
  writer.U64(engine_.node_count());
  for (const auto& [id, node] : storage_nodes()) {
    (void)node;
    if (!engine_.Contains(id)) {
      continue;
    }
    GeoTag tag = engine_.TagOf(id);
    writer.U32(id);
    writer.U32(tag.site);
    writer.U32(tag.rack);
    writer.U32(engine_.GroupOf(id));
  }
}

Status GeoLikeCluster::RestoreFlavorState(SnapshotReader& reader) {
  engine_.Clear();
  uint32_t group_count = reader.U32();
  if (reader.ok() && group_count > kMaxSchedulingGroups) {
    reader.Fail(Sprintf("scheduling group count %u out of range", group_count));
    return reader.status();
  }
  engine_.RestoreGroups(group_count);
  uint64_t count = reader.Count(4 + 4 + 4 + 4);
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    NodeId id = reader.U32();
    uint32_t site = reader.U32();
    uint32_t rack = reader.U32();
    uint32_t group = reader.U32();
    if (!reader.ok()) {
      break;
    }
    const StorageNode* node = FindStorageNode(id);
    if (node == nullptr) {
      reader.Fail(Sprintf("geotag references unknown storage node %u", id));
      break;
    }
    if (!node->online) {
      reader.Fail(Sprintf("geotag for offline storage node %u", id));
      break;
    }
    if (engine_.Contains(id)) {
      reader.Fail(Sprintf("duplicate geotag for storage node %u", id));
      break;
    }
    if (site >= static_cast<uint32_t>(engine_.sites()) ||
        rack >= static_cast<uint32_t>(engine_.racks_per_site())) {
      reader.Fail(Sprintf("geotag (%u, %u) for node %u out of tree bounds",
                          site, rack, id));
      break;
    }
    if (group >= kMaxSchedulingGroups) {
      reader.Fail(Sprintf("scheduling group %u for node %u out of range", group, id));
      break;
    }
    if (group >= group_count) {
      reader.Fail(Sprintf("scheduling group count %u does not cover group %u of node %u",
                          group_count, group, id));
      break;
    }
    engine_.RestoreNode(id, GeoTag{static_cast<uint16_t>(site),
                                   static_cast<uint16_t>(rack)}, group);
  }
  if (reader.ok()) {
    // Placement only sees engine members, so an online node missing here
    // would silently never receive a replica.
    for (const auto& [id, node] : storage_nodes()) {
      if (node.online && !engine_.Contains(id)) {
        reader.Fail(Sprintf("online storage node %u missing from the geotag record", id));
        break;
      }
    }
  }
  return reader.status();
}

}  // namespace themis
