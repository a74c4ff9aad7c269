#include "src/dfs/cluster_audit.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/common/strings.h"

namespace themis {

namespace {

using ChunkKeys = std::vector<std::pair<FileId, uint32_t>>;

unsigned long long U(uint64_t value) { return static_cast<unsigned long long>(value); }

// Ok, or a violation naming the first id where the maintained list and the
// scan part ways.
template <typename Id>
Status CompareIds(const char* what, const std::vector<Id>& maintained,
                  const std::vector<Id>& scanned) {
  auto [m, s] = std::mismatch(maintained.begin(), maintained.end(), scanned.begin(),
                              scanned.end());
  if (m == maintained.end() && s == scanned.end()) {
    return Status::Ok();
  }
  if (s == scanned.end() || (m != maintained.end() && *m < *s)) {
    return Status::Internal(Sprintf("%s lists %u, which a scan does not", what, *m));
  }
  return Status::Internal(Sprintf("%s misses %u, which a scan lists", what, *s));
}

Status CheckMembership(const DfsCluster& dfs) {
  for (const auto& [id, brick] : dfs.bricks()) {
    if (dfs.FindBrick(id) != &brick) {
      return Status::Internal(Sprintf("brick %u is missing from the id index", id));
    }
    const StorageNode* owner = dfs.FindStorageNode(brick.node);
    if (owner == nullptr) {
      return Status::Internal(
          Sprintf("brick %u names node %u, which is not a storage node", id, brick.node));
    }
    if (std::find(owner->bricks.begin(), owner->bricks.end(), id) == owner->bricks.end()) {
      return Status::Internal(Sprintf("brick %u is not listed by its node %u", id, brick.node));
    }
  }
  for (const auto& [id, node] : dfs.meta_nodes()) {
    if (dfs.FindMetaNode(id) != &node) {
      return Status::Internal(Sprintf("meta node %u is missing from the id index", id));
    }
  }
  for (const auto& [id, node] : dfs.storage_nodes()) {
    if (dfs.FindStorageNode(id) != &node) {
      return Status::Internal(Sprintf("storage node %u is missing from the id index", id));
    }
    if (dfs.meta_nodes().count(id) != 0) {
      return Status::Internal(Sprintf("node %u is both a meta and a storage node", id));
    }
    for (BrickId b : node.bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick == nullptr) {
        return Status::Internal(Sprintf("node %u lists unknown brick %u", id, b));
      }
      if (brick->node != id) {
        return Status::Internal(
            Sprintf("node %u lists brick %u, which names node %u", id, b, brick->node));
      }
    }
  }
  return Status::Ok();
}

// File existence lives in both the namespace and the layout table: each
// layout's file must be a namespace file with its id, and the counts match.
Status CheckFiles(const DfsCluster& dfs) {
  const NamespaceTree& tree = dfs.tree();
  for (const auto& [file, layout] : dfs.file_layouts()) {
    const NamespaceEntry* entry = tree.Find(tree.PathOf(file));
    if (entry == nullptr || entry->is_dir || entry->file_id != file) {
      return Status::Internal(Sprintf("file %llu has a layout but no namespace entry", U(file)));
    }
  }
  if (tree.file_count() != dfs.file_layouts().size()) {
    return Status::Internal(Sprintf("the namespace holds %zu files, the layout table %zu",
                                    tree.file_count(), dfs.file_layouts().size()));
  }
  return Status::Ok();
}

// Replica validity, byte conservation and the replica index, in one pass
// over the layouts.
Status CheckReplicasAndBytes(const DfsCluster& dfs) {
  std::map<BrickId, uint64_t> bytes;
  std::map<BrickId, ChunkKeys> index;
  for (const auto& [file, layout] : dfs.file_layouts()) {
    for (uint32_t c = 0; c < layout.chunks.size(); ++c) {
      const ReplicaSet& replicas = layout.chunks[c].replicas;
      for (auto it = replicas.begin(); it != replicas.end(); ++it) {
        if (dfs.FindBrick(*it) == nullptr) {
          return Status::Internal(
              Sprintf("file %llu chunk %u lists unknown brick %u", U(file), c, *it));
        }
        if (std::find(replicas.begin(), it, *it) != it) {
          return Status::Internal(
              Sprintf("file %llu chunk %u lists brick %u twice", U(file), c, *it));
        }
        bytes[*it] += layout.chunks[c].bytes;
        // Layouts iterate in file order and chunks in index order, so every
        // rebuilt list comes out sorted, like the maintained one.
        index[*it].emplace_back(file, c);
      }
    }
  }
  static const ChunkKeys kNone;
  for (const auto& [id, brick] : dfs.bricks()) {
    uint64_t expected = static_cast<uint64_t>(brick.linkfiles) * kLinkfileBytes;
    if (auto it = bytes.find(id); it != bytes.end()) {
      expected += it->second;
    }
    if (brick.used_bytes != expected) {
      return Status::Internal(
          Sprintf("brick %u holds %llu bytes, but its replicas and linkfiles sum to %llu", id,
                  U(brick.used_bytes), U(expected)));
    }
    auto it = index.find(id);
    const ChunkKeys& rebuilt = it != index.end() ? it->second : kNone;
    if (dfs.ChunksOnBrickRef(id) != rebuilt) {
      return Status::Internal(
          Sprintf("replica index of brick %u holds %zu chunks, the layouts place %zu", id,
                  dfs.ChunksOnBrickRef(id).size(), rebuilt.size()));
    }
  }
  return Status::Ok();
}

Status CheckLoadIndex(const DfsCluster& dfs) {
  std::vector<BrickId> serving_bricks;
  for (const auto& [id, brick] : dfs.bricks()) {
    if (brick.online && dfs.FindStorageNode(brick.node)->Serving()) {
      serving_bricks.push_back(id);
    }
  }
  // The monitor's scan lists every storage node, then every meta node, that
  // is online or crashed, each in id order.
  std::vector<NodeId> serving_nodes;
  std::vector<NodeId> serving_meta;
  std::vector<NodeId> members;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    if (node.Serving()) {
      serving_nodes.push_back(id);
    }
    if (node.online || node.crashed) {
      members.push_back(id);
    }
  }
  for (const auto& [id, node] : dfs.meta_nodes()) {
    if (node.Serving()) {
      serving_meta.push_back(id);
    }
    if (node.online || node.crashed) {
      members.push_back(id);
    }
  }
  std::vector<LoadSample> samples = dfs.SampleLoad();
  std::vector<NodeId> sampled;
  for (const LoadSample& sample : samples) {
    sampled.push_back(sample.node);
  }
  Status status = CompareIds("the serving brick list", dfs.ServingBricks(), serving_bricks);
  if (status.ok()) {
    status = CompareIds("the serving storage node list", dfs.ServingStorageNodeIds(),
                        serving_nodes);
  }
  if (status.ok()) {
    status = CompareIds("the serving meta node list", dfs.ListMetaNodes(), serving_meta);
  }
  if (status.ok()) {
    status = CompareIds("SampleLoad", sampled, members);
  }
  if (!status.ok()) {
    return status;
  }

  // Per-node sums over the online bricks, and the imbalance spread: the
  // hottest serving node's utilization over the fleet's.
  uint32_t nodes = 0;
  double max_fraction = 0.0;
  for (const LoadSample& sample : samples) {
    if (!sample.is_storage) {
      continue;
    }
    const StorageNode* node = dfs.FindStorageNode(sample.node);
    uint64_t used = 0;
    uint64_t capacity = 0;
    for (BrickId b : node->bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick->online) {
        used += brick->used_bytes;
        capacity += brick->capacity_bytes;
      }
    }
    if (sample.used_bytes != used || sample.capacity_bytes != capacity) {
      return Status::Internal(
          Sprintf("node %u samples %llu/%llu bytes used, its online bricks %llu/%llu",
                  sample.node, U(sample.used_bytes), U(sample.capacity_bytes), U(used),
                  U(capacity)));
    }
    if (node->Serving() && capacity > 0) {
      double fraction = static_cast<double>(used) / static_cast<double>(capacity);
      max_fraction = nodes == 0 ? fraction : std::max(max_fraction, fraction);
      ++nodes;
    }
  }

  // Brick fractions, fleet sums, free space and the hottest brick.
  for (const auto& [id, brick] : dfs.bricks()) {
    if (dfs.load_index().BrickFraction(id) != brick.UsedFraction()) {
      return Status::Internal(Sprintf("brick %u fraction memo is stale", id));
    }
  }
  uint64_t fleet_used = 0;
  uint64_t fleet_cap = 0;
  uint64_t free = 0;
  BrickId hottest = kInvalidBrick;
  double hottest_fraction = -1.0;
  for (BrickId id : serving_bricks) {
    const Brick* brick = dfs.FindBrick(id);
    fleet_used += brick->used_bytes;
    fleet_cap += brick->capacity_bytes;
    free += brick->FreeBytes();
    // Strict max in id order: the smallest id wins fraction ties.
    if (brick->UsedFraction() > hottest_fraction) {
      hottest_fraction = brick->UsedFraction();
      hottest = id;
    }
  }
  if (dfs.TotalServingUsedBytes() != fleet_used || dfs.TotalCapacityBytes() != fleet_cap ||
      dfs.FreeSpaceBytes() != free) {
    return Status::Internal(
        Sprintf("fleet used/capacity/free bytes %llu/%llu/%llu, a scan %llu/%llu/%llu",
                U(dfs.TotalServingUsedBytes()), U(dfs.TotalCapacityBytes()),
                U(dfs.FreeSpaceBytes()), U(fleet_used), U(fleet_cap), U(free)));
  }
  if (dfs.HottestServingBrick() != hottest) {
    return Status::Internal(Sprintf("hottest serving brick %u, a scan finds %u",
                                    dfs.HottestServingBrick(), hottest));
  }
  double spread = 0.0;
  if (nodes >= 2 && fleet_cap > 0) {
    double fleet = static_cast<double>(fleet_used) / static_cast<double>(fleet_cap);
    spread = std::max(0.0, max_fraction - fleet);
  }
  if (dfs.StorageImbalance() != spread) {
    return Status::Internal(Sprintf("storage imbalance %.17g, a scan finds %.17g",
                                    dfs.StorageImbalance(), spread));
  }
  return Status::Ok();
}

}  // namespace

Status AuditCluster(const DfsCluster& dfs) {
  Status status = CheckMembership(dfs);
  if (status.ok()) {
    status = CheckFiles(dfs);
  }
  if (status.ok()) {
    status = CheckReplicasAndBytes(dfs);
  }
  return status.ok() ? CheckLoadIndex(dfs) : status;
}

}  // namespace themis
