#include "src/dfs/cluster.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "src/common/log.h"
#include "src/common/strings.h"
#include "src/dfs/cluster_audit.h"

namespace themis {

namespace {

// CPU cost model (virtual seconds of CPU work).
constexpr double kMetaCpuPerOp = 0.004;
constexpr double kStorageCpuPerGiB = 0.35;
constexpr double kBalancerCpuPerPlan = 0.05;
// One network IO is accounted per 64 MiB transferred (plus one per request).
constexpr uint64_t kBytesPerIo = 64 * kMiB;
// Minimum capacity a brick may be reduced to. Kept within one order of
// magnitude of the default brick so fraction-point balance targets remain
// achievable at chunk granularity (a 10 GiB brick next to 480 GiB peers can
// sit at 50% utilization holding a single chunk — no balancer can fix that).
constexpr uint64_t kMinBrickCapacity = 128 * kGiB;
// With replication 2, a donor brick's chunk is blocked from the one receiver
// that already holds its pair — leveling needs enough bricks that a second
// receiver always exists.
constexpr size_t kMinServingBricks = 5;
// The metadata membership ops keep the serving count within these bounds.
constexpr int kMinMetaNodes = 1;
constexpr int kMaxMetaNodes = 5;
// Fixed per-op latency, on top of each op's transfer cost.
constexpr SimDuration kBaseOpLatency = Millis(500);
constexpr uint64_t kClientBandwidthPerS = 2 * kGiB;
constexpr uint64_t kMigrationBandwidthPerS = 1536 * kMiB;

uint64_t IoCount(uint64_t bytes) { return 1 + bytes / kBytesPerIo; }

// Stripe-sized chunks that hold `bytes`, counted without overflow.
uint64_t ChunksFor(uint64_t bytes) { return bytes / kChunkSize + (bytes % kChunkSize != 0); }

// How many of `chunks` chunks of `chunk_bytes` to reserve room for: no more
// than `fleet_cap` bytes of serving bricks could hold, so a request far
// beyond capacity fails in placement (OutOfSpace), not in the allocator.
size_t ChunkReservation(uint64_t chunks, uint64_t chunk_bytes, uint64_t fleet_cap) {
  return static_cast<size_t>(std::min(chunks, fleet_cap / std::max<uint64_t>(chunk_bytes, 1) + 1));
}

}  // namespace

DfsCluster::DfsCluster(ClusterConfig config, Flavor flavor, std::string cluster_name)
    : config_(config), flavor_(flavor), name_(std::move(cluster_name)),
      rng_(config.rng_seed) {}

DfsCluster::~DfsCluster() = default;

void DfsCluster::BuildInitialTopology() {
  tree_.Clear();
  storage_nodes_.clear();
  storage_node_index_.clear();
  meta_nodes_.clear();
  meta_node_index_.clear();
  bricks_.clear();
  brick_index_.clear();
  layouts_.clear();
  brick_chunks_.clear();
  move_queue_.clear();
  current_move_done_bytes_ = 0;
  rebalance_active_ = false;
  current_round_moves_ = 0;
  last_balancer_check_ = clock_.now();
  std::fill(std::begin(class_stamps_), std::end(class_stamps_), 0);
  balancer_crashed_ = false;
  balancer_resume_pending_ = false;
  offline_brick_list_.clear();
  serving_meta_nodes_.clear();
  crashed_node_ids_.clear();
  load_.Clear();
  ++membership_epoch_;
  InvalidateHomes();
  OnTopologyCleared();

  for (int i = 0; i < config_.initial_meta_nodes; ++i) {
    AddMetaNodeInternal();
  }
  for (int i = 0; i < config_.initial_storage_nodes; ++i) {
    AddStorageNodeInternal(BrickCapacityFor(next_node_id_));
  }
  OnTopologyChangedInternal();
}

void DfsCluster::ResetToInitial() {
  BuildInitialTopology();
  if (model_cov_ != nullptr) {
    model_cov_->ForceIdle();  // a topology rebuild is not a balancer action
  }
  completed_rebalance_rounds_ = 0;
  if (hooks_ != nullptr) {
    hooks_->OnClusterReset(*this);
  }
  if (env_ != nullptr) {
    env_->OnClusterReset(*this);
  }
}

// ---------------------------------------------------------------------------
// Lookup helpers

// FindBrick / FindStorageNode / FindMetaNode are inline in cluster.h, backed
// by the flat brick_index_ / storage_node_index_ / meta_node_index_ pointer
// vectors maintained below.

// ---------------------------------------------------------------------------
// Load index (DESIGN.md §10)
//
// The per-op read points (StorageImbalance in the balancer check and the
// coverage hash, SampleLoad in the monitor) run off the LoadIndex's integer
// sums, while mutation points pay an O(1) delta (byte writes) or an
// O(bricks-of-one-node) update (membership changes). There is one update
// path: a reset or a restore clears the index and re-adds every node and
// brick through the same calls. Removed nodes stay in the node maps as
// tombstones, so nothing on the per-op path walks a whole node map.

void DfsCluster::SetStorageNodeServing(const StorageNode& node, bool serving) {
  std::vector<BrickId> online;
  for (BrickId b : node.bricks) {
    const Brick* brick = FindBrick(b);
    if (brick != nullptr && brick->online) {
      online.push_back(b);
    }
  }
  load_.SetNodeServing(node.id, serving, online);
  ++membership_epoch_;
}

void DfsCluster::TakeBrickOffline(Brick& brick) {
  brick.online = false;
  offline_brick_list_.push_back(brick.id);
  load_.OnBrickOffline(brick);
  ++membership_epoch_;
}

void DfsCluster::SetBrickCapacity(Brick& brick, uint64_t capacity) {
  uint64_t old_capacity = brick.capacity_bytes;
  brick.capacity_bytes = capacity;
  load_.OnCapacityChanged(brick, old_capacity);
}

uint64_t DfsCluster::TotalUsedBytes() const {
  uint64_t total = 0;
  for (const auto& [id, brick] : bricks_) {
    total += brick.used_bytes;
  }
  return total;
}

uint64_t DfsCluster::FreeSpaceBytesExcept(BrickId skip) const {
  uint64_t free = 0;
  for (BrickId id : ServingBricks()) {
    if (id != skip) {
      free += FindBrick(id)->FreeBytes();
    }
  }
  return free;
}

MigrationPlan DfsCluster::PlanRebalance() {
  MigrationPlan plan;
  if (BuildRebalancePlan(plan)) {
    PlanLevelingByUsage(plan);
  }
  return plan;
}

void DfsCluster::FillFromServingBricks(uint64_t bytes, ReplicaSet& chosen) const {
  for (BrickId id : ServingBricks()) {
    if (static_cast<int>(chosen.size()) >= kReplication) {
      return;
    }
    if (FindBrick(id)->FreeBytes() >= bytes &&
        std::find(chosen.begin(), chosen.end(), id) == chosen.end()) {
      chosen.push_back(id);
    }
  }
}

void DfsCluster::PlanHoming(MigrationPlan& plan) const {
  uint64_t total_capacity = TotalCapacityBytes();
  double fleet = total_capacity == 0 ? 0.0
                                     : static_cast<double>(TotalServingUsedBytes()) /
                                           static_cast<double>(total_capacity);
  double receive_limit = fleet + BalanceTolerance();
  // Cumulative per-home bytes, by brick id.
  std::vector<uint64_t> planned_inflow(brick_index_.size(), 0);
  for (const auto& [file, layout] : layouts_) {
    // The path is built only for a file with a stale home memo (an empty
    // path, a file the tree no longer names, has no home).
    std::string path;
    bool path_resolved = false;
    for (uint32_t i = 0; i < layout.chunks.size(); ++i) {
      const ChunkPlacement& chunk = layout.chunks[i];
      if (chunk.replicas.empty()) {
        continue;
      }
      if (!path_resolved && chunk.home_epoch != home_epoch_) {
        path = tree_.PathOf(file);
        path_resolved = true;
      }
      BrickId home = MemoizedHome(file, i, chunk, &path);
      if (home == kInvalidBrick || chunk.HasReplicaOn(home)) {
        continue;
      }
      const Brick* target = FindBrick(home);
      if (target == nullptr || !target->online || target->FreeBytes() < chunk.bytes) {
        continue;
      }
      uint64_t& inflow = planned_inflow[home];
      double target_after = static_cast<double>(target->used_bytes + inflow + chunk.bytes) /
                            static_cast<double>(target->capacity_bytes);
      if (target_after > receive_limit) {
        continue;  // min-free-disk: leave the chunk where it is
      }
      inflow += chunk.bytes;
      plan.push_back(ChunkMove{.file = file,
                               .chunk_index = i,
                               .from = chunk.replicas.front(),
                               .to = home,
                               .bytes = chunk.bytes,
                               .reason = MoveReason::kRebalance,
                               .hash_driven = true});
    }
  }
}

void DfsCluster::PlanLevelingByUsage(MigrationPlan& plan) const {
  const std::vector<BrickId>& serving = ServingBricks();
  if (serving.size() < 2) {
    return;
  }
  uint64_t total_used = TotalServingUsedBytes();
  uint64_t total_capacity = TotalCapacityBytes();
  if (total_capacity == 0 || total_used == 0) {
    return;
  }
  double fleet = static_cast<double>(total_used) / static_cast<double>(total_capacity);
  double tolerance = BalanceTolerance();
  // Bytes the plan's data moves already direct at each brick, by brick id
  // (a linkfile unlink moves no data).
  std::vector<uint64_t> planned_inflow(brick_index_.size(), 0);
  for (const ChunkMove& move : plan) {
    if (!move.is_linkfile && move.to < planned_inflow.size()) {
      planned_inflow[move.to] += move.bytes;
    }
  }
  // Donors: above fleet*(1+tolerance); receivers: below fleet.
  struct Receiver {
    BrickId brick;
    uint64_t headroom;  // bytes it may absorb before reaching fleet level
  };
  std::vector<Receiver> receivers;
  for (BrickId id : serving) {
    const Brick* brick = FindBrick(id);
    // Receivers sit below fleet + tolerance/2 and may absorb data up to
    // fleet + tolerance. The band (rather than "strictly below fleet")
    // matters: with replication, the only brick below the mean can be the
    // donor's replica partner, and draining then needs a slightly-above-mean
    // third brick.
    double limit = (fleet + tolerance) * static_cast<double>(brick->capacity_bytes);
    if (brick->UsedFraction() < fleet + tolerance * 0.5) {
      uint64_t committed = brick->used_bytes + planned_inflow[id];
      if (static_cast<double>(committed) >= limit) {
        continue;
      }
      uint64_t headroom = static_cast<uint64_t>(limit) - committed;
      headroom = std::min(headroom, brick->FreeBytes());
      if (headroom > 0) {
        receivers.push_back(Receiver{id, headroom});
      }
    }
  }
  THEMIS_LOG(kDebug, "leveling: fleet=%.3f tolerance=%.3f receivers=%zu", fleet,
             tolerance, receivers.size());
  // Replica sets planned so far: both replicas of a chunk can be donated (by
  // different donors), and they must not land on the same receiver — the
  // second move would find its destination already holding the chunk and
  // silently skip, leaving its donor hot. A chunk has a donor per replica at
  // most, so its targets fit a ReplicaSet; only planned moves add entries.
  std::map<std::pair<FileId, uint32_t>, ReplicaSet> planned_targets;
  size_t receiver_cursor = 0;
  for (BrickId donor : serving) {
    const Brick* brick = FindBrick(donor);
    // Donor when its utilization exceeds the fleet level by `tolerance`
    // fraction points.
    double limit = (fleet + tolerance) * static_cast<double>(brick->capacity_bytes);
    if (static_cast<double>(brick->used_bytes) <= limit) {
      continue;
    }
    uint64_t excess =
        brick->used_bytes - static_cast<uint64_t>(fleet * static_cast<double>(
                                                              brick->capacity_bytes));
    THEMIS_LOG(kDebug, "leveling: donor brick%u (node %u) used=%.2f excess=%lluM chunks=%zu",
               donor, brick->node, brick->UsedFraction(),
               static_cast<unsigned long long>(excess >> 20), ChunksOnBrickRef(donor).size());
    for (const auto& [file, chunk_index] : ChunksOnBrickRef(donor)) {
      if (excess == 0 || receiver_cursor >= receivers.size()) {
        break;
      }
      const ChunkPlacement* chunk = FindChunk(file, chunk_index);
      if (chunk == nullptr) {
        continue;
      }
      if (MemoizedHome(file, chunk_index, *chunk, nullptr) == donor) {
        THEMIS_LOG(kDebug, "leveling: file%llu#%u pinned to brick%u",
                   static_cast<unsigned long long>(file), chunk_index, donor);
        continue;  // hash-placed: the flavor plan owns this replica
      }
      // Find a receiver that can take this chunk (no duplicate replica).
      size_t probe = receiver_cursor;
      bool placed = false;
      const std::pair<FileId, uint32_t> key{file, chunk_index};
      auto targets = planned_targets.find(key);
      while (probe < receivers.size()) {
        Receiver& recv = receivers[probe];
        bool collides = chunk->HasReplicaOn(recv.brick) ||
                        (targets != planned_targets.end() &&
                         std::ranges::find(targets->second, recv.brick) !=
                             targets->second.end());
        if (recv.headroom >= chunk->bytes && !collides) {
          THEMIS_LOG(kDebug, "leveling: plan move file%llu#%u brick%u->brick%u %lluM",
                     static_cast<unsigned long long>(file), chunk_index, donor,
                     recv.brick, static_cast<unsigned long long>(chunk->bytes >> 20));
          planned_targets[key].push_back(recv.brick);
          plan.push_back(ChunkMove{.file = file,
                                   .chunk_index = chunk_index,
                                   .from = donor,
                                   .to = recv.brick,
                                   .bytes = chunk->bytes,
                                   .reason = MoveReason::kRebalance});
          recv.headroom -= chunk->bytes;
          excess -= std::min(excess, chunk->bytes);
          placed = true;
          break;
        }
        ++probe;
      }
      while (receiver_cursor < receivers.size() &&
             receivers[receiver_cursor].headroom == 0) {
        ++receiver_cursor;
      }
      if (!placed && probe >= receivers.size() && receiver_cursor >= receivers.size()) {
        break;
      }
    }
  }
}

std::vector<NodeId> DfsCluster::ListMetaNodes() const { return serving_meta_nodes_; }

std::vector<NodeId> DfsCluster::ListStorageNodes() const { return ServingStorageNodeIds(); }

std::vector<BrickId> DfsCluster::ListBricks() const { return ServingBricks(); }

// ---------------------------------------------------------------------------
// Load accounting: the cumulative per-node counters the monitor samples.

void DfsCluster::AddLoad(NodeId node, const NodeLoadCounters& delta) {
  if (StorageNode* sn = FindStorageNode(node)) {
    sn->load += delta;
    return;
  }
  if (MetaNode* meta = FindMetaNode(node)) {
    meta->load += delta;
  }
}

void DfsCluster::CrashNode(NodeId node) {
  if (StorageNode* sn = FindStorageNode(node)) {
    bool was_serving = sn->Serving();
    sn->crashed = true;
    SetSortedMember(crashed_node_ids_, node, true);
    if (was_serving) {
      SetStorageNodeServing(*sn, false);
    }
    return;
  }
  if (MetaNode* meta = FindMetaNode(node)) {
    bool was_serving = meta->Serving();
    meta->crashed = true;
    SetSortedMember(crashed_node_ids_, node, true);
    if (was_serving) {
      SetSortedMember(serving_meta_nodes_, node, false);
      ++membership_epoch_;
    }
  }
}

void DfsCluster::CrashNodeForEnvFault(NodeId node) {
  bool is_meta = FindMetaNode(node) != nullptr;
  CrashNode(node);
  if (!is_meta || balancer_crashed_) {
    return;
  }
  // The balancer runs on the metadata tier, so an env crash of any meta
  // node takes the balancer process down with it. A round in flight loses
  // its queued rebalance moves (they lived in the dead process's memory);
  // replication-repair moves survive — storage daemons drive those.
  COV_BRANCH(cov_, CovModule::kRecovery, 30);
  balancer_crashed_ = true;
  if (rebalance_active_) {
    COV_BRANCH(cov_, CovModule::kRecovery, 31);
    balancer_resume_pending_ = true;
  }
  rebalance_active_ = false;
  bool front_dropped = !move_queue_.empty() &&
                       move_queue_.front().reason == MoveReason::kRebalance;
  move_queue_.erase(std::remove_if(move_queue_.begin(), move_queue_.end(),
                                   [](const ChunkMove& move) {
                                     return move.reason == MoveReason::kRebalance;
                                   }),
                    move_queue_.end());
  if (front_dropped) {
    current_move_done_bytes_ = 0;  // the partial transfer died with the round
  }
  current_round_moves_ = 0;
  ++balancer_crashes_;
  EmitBalancerState(BalancerState::kCrashed);
}

void DfsCluster::RestartNode(NodeId node) {
  if (StorageNode* sn = FindStorageNode(node)) {
    if (sn->crashed) {
      COV_BRANCH(cov_, CovModule::kRecovery, 32);
      sn->crashed = false;
      SetSortedMember(crashed_node_ids_, node, false);
      // The mirror of CrashNode: the node's online bricks rejoin the
      // serving list (a node removed while crashed stays out).
      if (sn->Serving()) {
        SetStorageNodeServing(*sn, true);
      }
    }
    return;
  }
  MetaNode* meta = FindMetaNode(node);
  if (meta == nullptr || !meta->crashed) {
    return;
  }
  COV_BRANCH(cov_, CovModule::kRecovery, 33);
  meta->crashed = false;
  SetSortedMember(crashed_node_ids_, node, false);
  if (meta->Serving()) {
    SetSortedMember(serving_meta_nodes_, node, true);
    ++membership_epoch_;
  }
  if (balancer_crashed_) {
    // First recovered meta node brings the balancer process back up; it
    // reloads its persisted flavor state and re-runs the interrupted round
    // from scratch against the current layout.
    balancer_crashed_ = false;
    // The restarted daemon comes back idle; a pending round re-enters the
    // planning chain via the TriggerRebalance below.
    EmitBalancerState(BalancerState::kIdle);
    OnBalancerRestarted();
    if (balancer_resume_pending_) {
      COV_BRANCH(cov_, CovModule::kRecovery, 34);
      balancer_resume_pending_ = false;
      (void)TriggerRebalance();
    }
  }
}

bool DfsCluster::EnvRecoveryPending() const {
  if (balancer_crashed_ || balancer_resume_pending_) {
    return true;
  }
  return env_ != nullptr && env_->RecoveryPending(*this);
}

uint64_t DfsCluster::SkewBytes(BrickId from, BrickId to, uint64_t bytes) {
  Brick* src = FindBrick(from);
  Brick* dst = FindBrick(to);
  if (src == nullptr || dst == nullptr || from == to) {
    return 0;
  }
  uint64_t moved = 0;
  // This runs on the continuous-fault path (every op while a storage fault
  // is active), so iterate the live vector instead of snapshotting it: only
  // the current element is ever erased (erase returns the next iterator), and
  // inserts go to `to`'s entry (from != to), so the visit order matches a
  // snapshot walk exactly. Entries are sorted by file, so the layout lookup
  // is cached across consecutive chunks of the same file.
  std::vector<std::pair<FileId, uint32_t>>& from_set = brick_chunks_[from];
  auto layout_it = layouts_.end();
  FileId layout_file = 0;
  bool layout_cached = false;
  auto it = from_set.begin();
  while (it != from_set.end()) {
    if (moved >= bytes || dst->FreeBytes() == 0) {
      break;
    }
    const auto [file, chunk_index] = *it;
    if (!layout_cached || layout_file != file) {
      layout_it = layouts_.find(file);
      layout_file = file;
      layout_cached = true;
    }
    if (layout_it == layouts_.end() || chunk_index >= layout_it->second.chunks.size()) {
      ++it;
      continue;
    }
    ChunkPlacement& chunk = layout_it->second.chunks[chunk_index];
    if (chunk.bytes > dst->FreeBytes() || chunk.HasReplicaOn(to)) {
      ++it;
      continue;
    }
    bool swapped = false;
    for (BrickId& replica : chunk.replicas) {
      if (replica == from) {
        replica = to;
        ReleaseBrickBytes(src, chunk.bytes);
        AccreteBrickBytes(dst, chunk.bytes);
        AddReplicaIndex(to, file, chunk_index);
        moved += chunk.bytes;
        swapped = true;
        break;
      }
    }
    if (swapped) {
      it = from_set.erase(it);
      load_.Touch();
    } else {
      ++it;
    }
  }
  return moved;
}

// ---------------------------------------------------------------------------
// Replica index

void DfsCluster::AddReplicaIndex(BrickId brick, FileId file, uint32_t chunk) {
  auto& vec = brick_chunks_[brick];
  const std::pair<FileId, uint32_t> key{file, chunk};
  if (vec.empty() || vec.back() < key) {
    vec.push_back(key);  // monotonic file ids make append the common case
    load_.Touch();
    return;
  }
  auto pos = std::lower_bound(vec.begin(), vec.end(), key);
  if (pos == vec.end() || *pos != key) {
    vec.insert(pos, key);
    load_.Touch();
  }
}

void DfsCluster::RemoveReplicaIndex(BrickId brick, FileId file, uint32_t chunk) {
  if (brick >= brick_chunks_.size()) {
    return;
  }
  auto& vec = brick_chunks_[brick];
  const std::pair<FileId, uint32_t> key{file, chunk};
  auto pos = std::lower_bound(vec.begin(), vec.end(), key);
  if (pos != vec.end() && *pos == key) {
    vec.erase(pos);
    load_.Touch();
  }
}

const std::vector<std::pair<FileId, uint32_t>>& DfsCluster::ChunksOnBrickRef(
    BrickId brick) const {
  static const std::vector<std::pair<FileId, uint32_t>> kEmpty;
  return brick < brick_chunks_.size() ? brick_chunks_[brick] : kEmpty;
}

// ---------------------------------------------------------------------------
// Topology services

BrickId DfsCluster::NewBrickOnNode(NodeId node, uint64_t capacity) {
  StorageNode* sn = FindStorageNode(node);
  if (sn == nullptr) {
    return kInvalidBrick;
  }
  BrickId id = next_brick_id_++;
  Brick& brick = bricks_[id];
  brick = Brick{.id = id, .node = node, .capacity_bytes = capacity};
  IndexBrickPtr(id, &brick);
  sn->bricks.push_back(id);
  load_.AddBrick(brick);
  ++membership_epoch_;
  return id;
}

NodeId DfsCluster::AddMetaNodeInternal() {
  NodeId id = next_node_id_++;
  MetaNode& stored = meta_nodes_[id];
  stored.id = id;
  IndexMetaNodePtr(id, &stored);
  serving_meta_nodes_.push_back(id);  // node ids are monotonic: stays sorted
  ++membership_epoch_;
  return id;
}

NodeId DfsCluster::AddStorageNodeInternal(uint64_t brick_capacity) {
  NodeId id = next_node_id_++;
  StorageNode node;
  node.id = id;
  StorageNode& stored = storage_nodes_[id];
  stored = node;
  IndexStorageNodePtr(id, &stored);
  OnStorageNodeAdmitted(id);
  load_.AddNode(id, /*serving=*/true);
  ++membership_epoch_;
  NewBrickOnNode(id, brick_capacity);
  return id;
}

// ---------------------------------------------------------------------------
// Operation execution

SimDuration DfsCluster::TransferCost(uint64_t bytes) {
  return static_cast<SimDuration>(
      static_cast<double>(bytes) / static_cast<double>(kClientBandwidthPerS) * 1e6);
}

SimDuration DfsCluster::ParallelTransferCost(const FileLayout& layout) {
  // Chunks stream to their bricks in parallel; the client's wall time is the
  // largest stripe times the replication factor.
  uint64_t max_chunk = 0;
  for (const ChunkPlacement& chunk : layout.chunks) {
    max_chunk = std::max(max_chunk, chunk.bytes);
  }
  return TransferCost(max_chunk * static_cast<uint64_t>(kReplication));
}

NodeId DfsCluster::RouteToMetaNode(const Operation& op) {
  (void)op;
  if (serving_meta_nodes_.empty()) {
    return kInvalidNode;
  }
  // Round-robin request routing (front-end load balancing): a healthy
  // cluster spreads requests evenly, so network imbalance is a *signal*,
  // not sampling noise.
  NodeId chosen = serving_meta_nodes_[total_ops_executed_ % serving_meta_nodes_.size()];
  AddLoad(chosen, {.requests = 1, .cpu_seconds = kMetaCpuPerOp});
  return chosen;
}

OpResult DfsCluster::Execute(const Operation& op) {
  OpResult result;
  if (IsEnvFaultOp(op.kind)) {
    // Environment ops bypass metadata routing: they model the test harness
    // (or the world) acting on the cluster from outside, so they succeed
    // even while every metadata node is down. Without an attached runtime
    // they are rejected — the fault-free grammar never generates them, so
    // this arm stays cold in every fault-free campaign.
    if (env_ != nullptr) {
      result = env_->ExecuteEnvOp(*this, op);
    } else {
      result.status = Status::Unavailable("no environment-fault runtime attached");
    }
  } else if (RouteToMetaNode(op) == kInvalidNode) {
    result.status = Status::Unavailable("no metadata node is serving");
  } else {
    switch (op.kind) {
      case OpKind::kCreate:
        result = DoCreate(op);
        break;
      case OpKind::kDelete:
        result = DoDelete(op);
        break;
      case OpKind::kAppend:
        result = DoAppend(op);
        break;
      case OpKind::kOverwrite:
        result = DoOverwrite(op, /*truncate_first=*/false);
        break;
      case OpKind::kTruncateOverwrite:
        result = DoOverwrite(op, /*truncate_first=*/true);
        break;
      case OpKind::kOpen:
        result = DoOpen(op);
        break;
      case OpKind::kMkdir:
        result = DoMkdir(op);
        break;
      case OpKind::kRmdir:
        result = DoRmdir(op);
        break;
      case OpKind::kRename:
        result = DoRename(op);
        break;
      case OpKind::kAddMetaNode:
        result = DoAddMetaNode(op);
        break;
      case OpKind::kRemoveMetaNode:
        result = DoRemoveMetaNode(op);
        break;
      case OpKind::kAddStorageNode:
        result = DoAddStorageNode(op);
        break;
      case OpKind::kRemoveStorageNode:
        result = DoRemoveStorageNode(op);
        break;
      case OpKind::kAddVolume:
        result = DoAddVolume(op);
        break;
      case OpKind::kRemoveVolume:
        result = DoRemoveVolume(op);
        break;
      case OpKind::kExpandVolume:
        result = DoExpandVolume(op);
        break;
      case OpKind::kReduceVolume:
        result = DoReduceVolume(op);
        break;
      default:  // env ops take the first branch
        break;
    }
  }
  result.cost += kBaseOpLatency;

  ++total_ops_executed_;
  SendMetadataHeartbeats();
  class_stamps_[static_cast<size_t>(ClassOf(op.kind))] = total_ops_executed_;

  RunFor(result.cost);
  RecordOpCoverage(op, result);
  if (hooks_ != nullptr) {
    hooks_->OnOperationExecuted(*this, op, result);
  }
  return result;
}

void DfsCluster::SendMetadataHeartbeats() {
  if (env_ == nullptr) {
    return;
  }
  // The cluster keeps no replica lag, so a lost heartbeat costs only the
  // runtime's loss draw and coverage site 30. Both are inside the pinned
  // env-fault digests, so the heartbeats stay.
  for (NodeId id : serving_meta_nodes_) {
    if (env_->DropHeartbeat(*this, id)) {
      COV_BRANCH(cov_, CovModule::kReplication, 30);
    }
  }
}

void DfsCluster::RunFor(SimDuration dt) {
  clock_.Advance(dt);
  if (env_ != nullptr) {
    env_->OnClockAdvanced(*this, clock_.now());
  }
  AdvanceBackground(dt);
  MaybeTriggerBalancer();
}

void DfsCluster::AdvanceTime(SimDuration delta) {
  // Idle time still runs the periodic balancer and its migrations: advance
  // in period-sized steps so a trigger fired early in the window gets its
  // background work done within the same call.
  while (delta > 0) {
    SimDuration step = std::min(delta, config_.balancer_period);
    RunFor(step);
    delta -= step;
  }
}

// ---- file operations ----

Result<FileLayout> DfsCluster::PlaceFile(const std::string& path, uint64_t size) {
  FileLayout layout;
  uint64_t remaining = size;
  // Every chunk stays within the stripe unit so the balancer can migrate at
  // chunk granularity. Each placed chunk fills a serving brick by at least
  // half a stripe, so placement runs out of space long before the index
  // outgrows 32 bits.
  uint64_t chunk_count = size == 0 ? 1 : ChunksFor(size);
  uint64_t per_chunk = size / chunk_count;
  layout.chunks.reserve(ChunkReservation(chunk_count, per_chunk, TotalCapacityBytes()));
  for (uint32_t i = 0; i < chunk_count; ++i) {
    uint64_t bytes = (i + 1 == chunk_count) ? remaining : per_chunk;
    remaining -= bytes;
    ReplicaSet replicas = PlaceChunk(path, i, bytes);
    if (replicas.empty()) {
      // Roll back bricks already charged.
      for (ChunkPlacement& chunk : layout.chunks) {
        for (BrickId b : chunk.replicas) {
          ReleaseBrickBytes(FindBrick(b), chunk.bytes);
        }
      }
      return Status::OutOfSpace(Sprintf("no placement for chunk %u of %s", i, path.c_str()));
    }
    for (BrickId b : replicas) {
      AccreteBrickBytes(FindBrick(b), bytes);
    }
    layout.chunks.push_back(ChunkPlacement{.bytes = bytes, .replicas = replicas});
  }
  return layout;
}

void DfsCluster::ReleaseLayout(FileId file, const FileLayout& layout) {
  std::vector<BrickId> touched;
  for (const ChunkPlacement& chunk : layout.chunks) {
    for (BrickId b : chunk.replicas) {
      ReleaseBrickBytes(FindBrick(b), chunk.bytes);
      if (std::find(touched.begin(), touched.end(), b) == touched.end()) {
        touched.push_back(b);
      }
    }
  }
  // The index holds exactly the layout's (file, chunk) pairs on each of its
  // bricks, and they sit contiguously in each brick's sorted vector, so one
  // range erase per brick drops them all.
  for (BrickId b : touched) {
    if (b >= brick_chunks_.size()) {
      continue;
    }
    auto& vec = brick_chunks_[b];
    auto [first, last] = std::ranges::equal_range(vec, file, {},
                                                  &std::pair<FileId, uint32_t>::first);
    if (first == last) {
      continue;
    }
    vec.erase(first, last);
    load_.Touch();
  }
}

void DfsCluster::IndexLayout(FileId file, const FileLayout& layout) {
  for (uint32_t i = 0; i < layout.chunks.size(); ++i) {
    for (BrickId b : layout.chunks[i].replicas) {
      // A freshly indexed file carries the largest (file, chunk) keys the
      // brick has seen, so AddReplicaIndex's append fast path makes this
      // amortized O(1).
      AddReplicaIndex(b, file, i);
    }
  }
}

void DfsCluster::ChargeLayoutIo(const FileLayout& layout, bool is_write) {
  for (const ChunkPlacement& chunk : layout.chunks) {
    // The charge is identical for every replica of the chunk.
    const double cpu = kStorageCpuPerGiB * static_cast<double>(chunk.bytes) /
                       static_cast<double>(kGiB);
    const uint64_t ios = IoCount(chunk.bytes);
    for (BrickId b : chunk.replicas) {
      const Brick* brick = FindBrick(b);
      if (brick == nullptr) {
        continue;
      }
      if (is_write) {
        AddLoad(brick->node, {.write_ios = ios, .cpu_seconds = cpu});
      } else {
        AddLoad(brick->node, {.read_ios = ios, .cpu_seconds = cpu * 0.5});
      }
    }
  }
}

// Placement policies hash the normalized path *string*; in the common case
// the generated operand is already normalized, so this is a no-alloc
// pass-through (the scratch buffer covers the rest).
const std::string& DfsCluster::NormalizedOpPath(const Operation& op) {
  if (IsNormalizedPath(op.path)) {
    return op.path;
  }
  norm_scratch_ = NormalizePath(op.path);
  return norm_scratch_;
}

Status DfsCluster::AdmitFileSize(uint64_t new_size) {
  if (config_.max_file_size == 0 || new_size <= config_.max_file_size) {
    return Status::Ok();
  }
  COV_BRANCH(cov_, CovModule::kRequest, 35);
  return Status::InvalidArgument(Sprintf("file size %llu exceeds max_file_size %llu",
                                         static_cast<unsigned long long>(new_size),
                                         static_cast<unsigned long long>(config_.max_file_size)));
}

OpResult DfsCluster::DoCreate(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kRequest, 0);
  PathId rid = tree_.ResolveOpPath(op);
  if (tree_.Find(rid) != nullptr) {
    result.status = Status::AlreadyExists(op.path);
    return result;
  }
  // EFBIG: rejected at admission, before any placement work.
  result.status = AdmitFileSize(op.size);
  if (!result.status.ok()) {
    return result;
  }
  Result<FileLayout> placed = PlaceFile(NormalizedOpPath(op), op.size);
  if (!placed.ok()) {
    COV_BRANCH(cov_, CovModule::kPlacement, 1);
    result.status = placed.status();
    return result;
  }
  Result<FileId> created = tree_.CreateFile(rid);
  if (!created.ok()) {
    ReleaseLayout(0, *placed);  // not yet indexed; brick bytes roll back only
    result.status = created.status();
    return result;
  }
  layouts_[*created] = placed.take();
  IndexLayout(*created, layouts_[*created]);
  ChargeLayoutIo(layouts_[*created], /*is_write=*/true);
  result.cost = ParallelTransferCost(layouts_[*created]);
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoDelete(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kRequest, 2);
  PathId rid = tree_.ResolveOpPath(op);
  Result<FileId> id = tree_.FileIdOf(rid);
  if (!id.ok()) {
    result.status = Status::NotFound(op.path);  // raw operand, as clients see
    return result;
  }
  auto layout_it = layouts_.find(*id);
  if (layout_it != layouts_.end()) {
    ReleaseLayout(*id, layout_it->second);
    layouts_.erase(layout_it);
  }
  result.status = tree_.RemoveFile(rid);
  return result;
}

OpResult DfsCluster::DoAppend(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kRequest, 3);
  PathId rid = tree_.ResolveOpPath(op);
  Result<FileId> id = tree_.FileIdOf(rid);
  if (!id.ok()) {
    result.status = Status::NotFound(op.path);  // raw operand, as clients see
    return result;
  }
  FileLayout& layout = layouts_[*id];
  uint64_t bytes = op.size;
  // A sum past 2^64 saturates, so it cannot wrap under the EFBIG cap.
  result.status = AdmitFileSize(std::min(layout.Size(), UINT64_MAX - bytes) + bytes);
  if (!result.status.ok()) {
    return result;
  }
  // Extend the last chunk while it stays within the stripe unit (chunks must
  // remain individually migratable); otherwise place a new chunk.
  if (!layout.chunks.empty() && layout.chunks.back().bytes + bytes <= kChunkSize) {
    ChunkPlacement& last = layout.chunks.back();
    bool fits = true;
    for (BrickId b : last.replicas) {
      const Brick* brick = FindBrick(b);
      if (brick == nullptr || brick->FreeBytes() < bytes) {
        fits = false;
        break;
      }
    }
    if (fits) {
      last.bytes += bytes;
      for (BrickId b : last.replicas) {
        Brick* brick = FindBrick(b);
        AccreteBrickBytes(brick, bytes);
        AddLoad(brick->node,
                {.write_ios = IoCount(bytes),
                 .cpu_seconds = kStorageCpuPerGiB * static_cast<double>(bytes) / kGiB});
      }
      result.cost = TransferCost(bytes * kReplication);
      return result;
    }
  }
  // Append as a run of stripe-sized chunks. The reservation keeps the
  // vector's geometric growth across appends.
  uint64_t remaining = bytes;
  uint64_t appended = 0;
  layout.chunks.reserve(
      std::max(layout.chunks.size() +
                   ChunkReservation(ChunksFor(bytes), kChunkSize, TotalCapacityBytes()),
               2 * layout.chunks.size()));
  while (remaining > 0) {
    uint64_t piece = std::min(remaining, kChunkSize);
    ReplicaSet replicas = PlaceChunk(
        NormalizedOpPath(op), static_cast<uint32_t>(layout.chunks.size()), piece);
    if (replicas.empty()) {
      COV_BRANCH(cov_, CovModule::kPlacement, 4);
      break;  // partial append: the write hit ENOSPC mid-stream
    }
    uint32_t index = static_cast<uint32_t>(layout.chunks.size());
    for (BrickId b : replicas) {
      Brick* brick = FindBrick(b);
      AccreteBrickBytes(brick, piece);
      AddReplicaIndex(b, *id, index);
      AddLoad(brick->node,
              {.write_ios = IoCount(piece),
               .cpu_seconds = kStorageCpuPerGiB * static_cast<double>(piece) / kGiB});
    }
    layout.chunks.push_back(ChunkPlacement{.bytes = piece, .replicas = replicas});
    appended += piece;
    remaining -= piece;
  }
  if (appended != bytes) {
    result.status = Status::OutOfSpace("append: no placement");
  }
  result.cost = TransferCost(std::min<uint64_t>(appended, kChunkSize) * kReplication);
  return result;
}

OpResult DfsCluster::DoOverwrite(const Operation& op, bool truncate_first) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kRequest, truncate_first ? 6 : 5);
  PathId rid = tree_.ResolveOpPath(op);
  Result<FileId> id = tree_.FileIdOf(rid);
  if (!id.ok()) {
    result.status = Status::NotFound(op.path);  // raw operand, as clients see
    return result;
  }
  // EFBIG before the truncate: the existing data stays untouched.
  result.status = AdmitFileSize(op.size);
  if (!result.status.ok()) {
    return result;
  }
  auto layout_it = layouts_.find(*id);
  if (layout_it != layouts_.end()) {
    ReleaseLayout(*id, layout_it->second);
    layouts_.erase(layout_it);
  }
  Result<FileLayout> placed = PlaceFile(NormalizedOpPath(op), op.size);
  if (!placed.ok()) {
    // The file now exists with no data (the truncate landed, the write
    // failed) — exactly what happens on a full real system.
    layouts_[*id] = FileLayout{};
    result.status = placed.status();
    return result;
  }
  layouts_[*id] = placed.take();
  IndexLayout(*id, layouts_[*id]);
  ChargeLayoutIo(layouts_[*id], /*is_write=*/true);
  result.cost = ParallelTransferCost(layouts_[*id]);
  return result;
}

OpResult DfsCluster::DoOpen(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kRequest, 7);
  Result<FileId> id = tree_.FileIdOf(tree_.ResolveOpPath(op));
  if (!id.ok()) {
    result.status = Status::NotFound(op.path);  // raw operand, as clients see
    return result;
  }
  auto layout_it = layouts_.find(*id);
  if (layout_it != layouts_.end()) {
    ChargeLayoutIo(layout_it->second, /*is_write=*/false);
    result.cost = TransferCost(layout_it->second.Size()) / 2;  // read path is lighter
  }
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoMkdir(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kNamespace, 8);
  result.status = tree_.MakeDir(tree_.ResolveOpPath(op));
  return result;
}

OpResult DfsCluster::DoRmdir(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kNamespace, 9);
  result.status = tree_.RemoveDir(tree_.ResolveOpPath(op));
  return result;
}

OpResult DfsCluster::DoRename(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kNamespace, 10);
  PathId src = tree_.ResolveOpPath(op);
  PathId dst = tree_.ResolveOpPath2(op);
  bool is_file = tree_.FileIdOf(src).ok();
  result.status = tree_.Rename(src, dst);
  if (result.status.ok()) {
    InvalidateHomes();  // the file, or every file under the dir, has a new path
    OnRenamed(op, is_file);
  }
  return result;
}

// ---- node operations ----

OpResult DfsCluster::DoAddMetaNode(const Operation& op) {
  (void)op;
  OpResult result;
  COV_BRANCH(cov_, CovModule::kMembership, 11);
  if (static_cast<int>(serving_meta_nodes_.size()) >= kMaxMetaNodes) {
    result.status = Status::FailedPrecondition("metadata node limit reached");
    return result;
  }
  AddMetaNodeInternal();
  result.cost = Seconds(5);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoRemoveMetaNode(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kMembership, 12);
  if (static_cast<int>(serving_meta_nodes_.size()) <= kMinMetaNodes) {
    result.status = Status::FailedPrecondition("metadata node minimum reached");
    return result;
  }
  NodeId target = op.node;
  MetaNode* meta = FindMetaNode(target);
  if (meta == nullptr || !meta->Serving()) {
    result.status = Status::NotFound(Sprintf("meta node %u", target));
    return result;
  }
  meta->online = false;
  SetSortedMember(serving_meta_nodes_, target, false);
  ++membership_epoch_;
  result.cost = Seconds(3);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoAddStorageNode(const Operation& op) {
  (void)op;
  OpResult result;
  COV_BRANCH(cov_, CovModule::kMembership, 13);
  int serving = static_cast<int>(ServingStorageNodeIds().size());
  if (serving >= config_.max_storage_nodes) {
    result.status = Status::FailedPrecondition("storage node limit reached");
    return result;
  }
  AddStorageNodeInternal(BrickCapacityFor(next_node_id_));
  result.cost = Seconds(20);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoRemoveStorageNode(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kMembership, 14);
  if (static_cast<int>(ServingStorageNodeIds().size()) <= config_.min_storage_nodes) {
    result.status = Status::FailedPrecondition("storage node minimum reached");
    return result;
  }
  StorageNode* node = FindStorageNode(op.node);
  if (node == nullptr || !node->Serving()) {
    result.status = Status::NotFound(Sprintf("storage node %u", op.node));
    return result;
  }
  // The node is serving, so exactly its online bricks sit in the serving
  // list — count the rest by subtraction instead of a fleet walk.
  size_t own_serving = 0;
  for (BrickId b : node->bricks) {
    const Brick* brick = FindBrick(b);
    if (brick != nullptr && brick->online) {
      ++own_serving;
    }
  }
  size_t bricks_elsewhere = ServingBricks().size() - own_serving;
  if (bricks_elsewhere < kMinServingBricks) {
    result.status = Status::FailedPrecondition("too few bricks would remain");
    return result;
  }
  node->online = false;
  SetStorageNodeServing(*node, false);
  for (BrickId b : node->bricks) {
    Brick* brick = FindBrick(b);
    if (brick != nullptr && brick->online) {
      TakeBrickOffline(*brick);
    }
  }
  OnStorageNodeDecommissioned(op.node);
  // Re-replicate the chunks that lost a replica with the node.
  COV_BRANCH(cov_, CovModule::kRecovery, 20);
  BeginRecoveryPass();
  for (BrickId b : node->bricks) {
    if (!QueueMovesOff(b, MoveReason::kRecovery, UINT64_MAX)) {
      COV_BRANCH(cov_, CovModule::kRecovery, 21);
    }
  }
  result.cost = Seconds(10);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

// ---- volume operations ----

OpResult DfsCluster::DoAddVolume(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kVolume, 15);
  NodeId target = op.node;
  if (FindStorageNode(target) == nullptr || !FindStorageNode(target)->Serving()) {
    // Attach to the node with the least total capacity.
    uint64_t best_capacity = UINT64_MAX;
    target = kInvalidNode;
    for (NodeId id : ServingStorageNodeIds()) {
      const StorageNode* node = FindStorageNode(id);
      if (node == nullptr) {
        continue;
      }
      uint64_t cap = 0;
      for (BrickId b : node->bricks) {
        const Brick* brick = FindBrick(b);
        if (brick != nullptr) {
          cap += brick->capacity_bytes;
        }
      }
      if (cap < best_capacity) {
        best_capacity = cap;
        target = id;
      }
    }
  }
  if (target == kInvalidNode) {
    result.status = Status::Unavailable("no serving storage node for new volume");
    return result;
  }
  uint64_t capacity = op.size == 0 ? kBrickCapacity
                                   : std::clamp(op.size, kMinBrickCapacity, 2 * kBrickCapacity);
  NewBrickOnNode(target, capacity);
  result.cost = Seconds(15);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoRemoveVolume(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kVolume, 16);
  Brick* brick = FindBrick(op.brick);
  if (brick == nullptr || !brick->online) {
    result.status = Status::NotFound(Sprintf("brick %u", op.brick));
    return result;
  }
  // Refuse if the remaining bricks cannot absorb the data.
  if (ServingBricks().size() <= kMinServingBricks ||
      FreeSpaceBytesExcept(op.brick) < brick->used_bytes) {
    result.status = Status::FailedPrecondition("insufficient space to evacuate brick");
    return result;
  }
  TakeBrickOffline(*brick);
  COV_BRANCH(cov_, CovModule::kMigration, 22);
  BeginRecoveryPass();
  QueueMovesOff(op.brick, MoveReason::kEvacuation, UINT64_MAX);
  result.cost = Seconds(10);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoExpandVolume(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kVolume, 17);
  Brick* brick = FindBrick(op.brick);
  if (brick == nullptr || !brick->online) {
    result.status = Status::NotFound(Sprintf("brick %u", op.brick));
    return result;
  }
  uint64_t delta = op.size == 0 ? kBrickCapacity / 4 : op.size;
  // A device grows to at most 2x the standard brick: balance targets must
  // stay reachable at chunk granularity across the capacity spread.
  uint64_t cap_limit = 2 * kBrickCapacity;
  if (brick->capacity_bytes >= cap_limit) {
    result.status = Status::FailedPrecondition("volume already at maximum size");
    return result;
  }
  SetBrickCapacity(*brick, std::min(brick->capacity_bytes + delta, cap_limit));
  result.cost = Seconds(8);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoReduceVolume(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kVolume, 18);
  Brick* brick = FindBrick(op.brick);
  if (brick == nullptr || !brick->online) {
    result.status = Status::NotFound(Sprintf("brick %u", op.brick));
    return result;
  }
  uint64_t delta = op.size == 0 ? brick->capacity_bytes / 4 : op.size;
  // A single resize shrinks a device by at most 40%: one random operation
  // cannot crater a brick; sustained shrinking takes deliberate repetition.
  delta = std::min(delta, brick->capacity_bytes * 2 / 5);
  uint64_t new_capacity =
      std::max(brick->capacity_bytes - delta, kMinBrickCapacity);
  // Shrinking below the stored data strands it; refuse unless the rest of
  // the cluster can absorb the overflow (what lvreduce/remove-brick
  // preflights enforce).
  uint64_t overflow = brick->used_bytes > new_capacity ? brick->used_bytes - new_capacity : 0;
  if (overflow > 0 && FreeSpaceBytesExcept(op.brick) < overflow) {
    COV_BRANCH(cov_, CovModule::kVolume, 19);
    result.status = Status::FailedPrecondition("reduction would strand data");
    return result;
  }
  SetBrickCapacity(*brick, new_capacity);
  if (overflow > 0) {
    BeginRecoveryPass();
    QueueMovesOff(op.brick, MoveReason::kEvacuation, overflow);
  }
  result.cost = Seconds(8);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

void DfsCluster::NotifyTopologyChanged() {
  OnTopologyChangedInternal();
  if (cov_ != nullptr) {
    uint64_t features = HashCombine(ServingBricks().size(), ServingStorageNodeIds().size());
    features = HashCombine(features, meta_nodes_.size());
    cov_->HitState(CovModule::kMembership, features);
  }
  if (hooks_ != nullptr) {
    hooks_->OnTopologyChanged(*this);
  }
}

// ---------------------------------------------------------------------------
// Recovery / evacuation / migration

// Snapshots the serving bricks once per scheduling pass, sorted by
// (utilization, serving order). The key is a unique total order, so the
// picks match the historical full scan in serving order exactly.
void DfsCluster::BeginRecoveryPass() {
  recovery_sorted_.clear();
  uint32_t order = 0;
  for (BrickId id : ServingBricks()) {
    recovery_sorted_.push_back(RecoveryCandidate{load_.BrickFraction(id), order++, id});
  }
  std::sort(recovery_sorted_.begin(), recovery_sorted_.end(),
            [](const RecoveryCandidate& a, const RecoveryCandidate& b) {
              return a.used_fraction != b.used_fraction ? a.used_fraction < b.used_fraction
                                                        : a.order < b.order;
            });
}

// Equivalent to the historical full scan (least-used serving brick, +0.5
// penalty for co-locating with an existing replica's node, first in serving
// order on ties) but over the pre-sorted candidate list, so it can stop as
// soon as no later candidate can beat the incumbent: a candidate's key is at
// least its used_fraction, and used_fractions only grow from here.
BrickId DfsCluster::PickRecoveryTarget(const ChunkPlacement& chunk,
                                       uint64_t bytes) const {
  BrickId best = kInvalidBrick;
  double best_used = 2.0;
  uint32_t best_order = 0xffffffffu;
  // The replica node set is per chunk, not per candidate — resolve it once.
  replica_nodes_scratch_.clear();
  for (BrickId other : chunk.replicas) {
    const Brick* other_brick = FindBrick(other);
    if (other_brick != nullptr) {
      replica_nodes_scratch_.push_back(other_brick->node);
    }
  }
  for (const RecoveryCandidate& cand : recovery_sorted_) {
    if (cand.used_fraction > best_used) {
      break;
    }
    const Brick* cand_brick = FindBrick(cand.id);
    if (cand_brick->FreeBytes() < bytes || chunk.HasReplicaOn(cand.id)) {
      continue;
    }
    // Keep replicas on distinct nodes when possible.
    bool same_node = false;
    for (NodeId other_node : replica_nodes_scratch_) {
      if (other_node == cand_brick->node) {
        same_node = true;
        break;
      }
    }
    double used = cand.used_fraction + (same_node ? 0.5 : 0.0);
    if (used < best_used || (used == best_used && cand.order < best_order)) {
      best_used = used;
      best_order = cand.order;
      best = cand.id;
    }
  }
  return best;
}

bool DfsCluster::QueueMovesOff(BrickId brick, MoveReason reason, uint64_t byte_limit) {
  bool all_placed = true;
  uint64_t queued = 0;
  for (const auto& [file, chunk_index] : ChunksOnBrickRef(brick)) {
    if (queued >= byte_limit) {
      break;
    }
    const ChunkPlacement* chunk = FindChunk(file, chunk_index);
    if (chunk == nullptr) {
      continue;
    }
    BrickId target = PickRecoveryTarget(*chunk, chunk->bytes);
    if (target == kInvalidBrick) {
      all_placed = false;
      continue;
    }
    move_queue_.push_back(ChunkMove{.file = file,
                                    .chunk_index = chunk_index,
                                    .from = brick,
                                    .to = target,
                                    .bytes = chunk->bytes,
                                    .reason = reason});
    queued += chunk->bytes;
  }
  return all_placed;
}

Status DfsCluster::TriggerRebalance() {
  if (balancer_crashed_) {
    // The balancer process is down (env crash of its host): the command has
    // nobody to talk to. The round resumes when the node restarts.
    balancer_resume_pending_ = true;
    return Status::Unavailable("balancer process is down");
  }
  COV_BRANCH(cov_, CovModule::kAdmin, 23);
  if (hooks_ != nullptr && hooks_->SuppressRebalance(*this)) {
    COV_BRANCH(cov_, CovModule::kAdmin, 24);
    return Status::Ok();  // the hang fault swallows the command silently
  }
  if (rebalance_active_) {
    return Status::Ok();  // already running
  }
  MigrationPlan plan = PlanRebalance();
  if (hooks_ != nullptr) {
    hooks_->OnRebalancePlanned(*this, plan);
  }
  // Charge the balancer's own computation to a metadata node. Reads the
  // serving list in place — same contents and order as ListMetaNodes(), and
  // PickIndex fires iff the list is non-empty, so the RNG stream is
  // unchanged.
  if (!serving_meta_nodes_.empty()) {
    AddLoad(serving_meta_nodes_[rng_.PickIndex(serving_meta_nodes_.size())],
            {.cpu_seconds = kBalancerCpuPerPlan});
  }
  if (cov_ != nullptr) {
    uint64_t features = HashCombine(plan.size() / 4, static_cast<uint64_t>(
                                                        StorageImbalance() * 20.0));
    features = HashCombine(features, ServingBricks().size());
    features = HashCombine(features, PlanBytes(plan) / (16 * kGiB));
    cov_->HitState(CovModule::kBalancer, features, 2 * ImbalanceMultiplicity());
  }
  if (plan.empty()) {
    ++completed_rebalance_rounds_;
    if (telemetry_ != nullptr) {
      telemetry_->Record(CampaignEventKind::kRebalanceRound, "empty",
                         StorageImbalance());
    }
    // Empty plan: the round settles without a migration phase.
    EmitBalancerState(BalancerSettleState(flavor_));
    EmitBalancerState(BalancerState::kIdle);
    OnRebalanceRoundDone();
    if (hooks_ != nullptr) {
      hooks_->OnRebalanceDone(*this);
    }
    return Status::Ok();
  }
  current_round_moves_ = plan.size();
  if (telemetry_ != nullptr) {
    telemetry_->Record(CampaignEventKind::kRebalanceRound, "planned",
                       StorageImbalance(), 0.0, current_round_moves_);
  }
  for (ChunkMove& move : plan) {
    move_queue_.push_back(move);
  }
  EmitBalancerState(BalancerMoveState(flavor_));
  rebalance_active_ = true;
  return Status::Ok();
}

void DfsCluster::MaybeTriggerBalancer() {
  if (clock_.now() - last_balancer_check_ < config_.balancer_period) {
    return;
  }
  last_balancer_check_ = clock_.now();
  if (balancer_crashed_) {
    return;  // nobody is running the periodic check
  }
  if (hooks_ != nullptr && hooks_->SuppressRebalance(*this)) {
    return;
  }
  if (StorageImbalance() > config_.native_threshold && !rebalance_active_) {
    COV_BRANCH(cov_, CovModule::kBalancer, 25);
    (void)TriggerRebalance();
  }
}

void DfsCluster::ExecuteMove(const ChunkMove& move) {
  ChunkPlacement* chunk = FindChunk(move.file, move.chunk_index);
  if (chunk == nullptr) {
    return;  // the file vanished while queued
  }
  auto replica_it = std::find(chunk->replicas.begin(), chunk->replicas.end(), move.from);
  if (replica_it == chunk->replicas.end()) {
    return;  // already moved elsewhere
  }
  Brick* from = FindBrick(move.from);
  Brick* to = FindBrick(move.to);
  if (to == nullptr || !to->online || chunk->HasReplicaOn(move.to) ||
      to->FreeBytes() < chunk->bytes) {
    COV_BRANCH(cov_, CovModule::kMigration, 26);
    THEMIS_LOG(kDebug, "migration: skip %s", move.ToString().c_str());
    return;
  }
  *replica_it = move.to;
  if (from != nullptr) {
    ReleaseBrickBytes(from, chunk->bytes);
    AddLoad(from->node,
            {.read_ios = IoCount(chunk->bytes),
             .cpu_seconds = kStorageCpuPerGiB * static_cast<double>(chunk->bytes) / kGiB * 0.5});
  }
  AccreteBrickBytes(to, chunk->bytes);
  AddLoad(to->node, {.write_ios = IoCount(chunk->bytes),
                     .cpu_seconds = kStorageCpuPerGiB * static_cast<double>(chunk->bytes) / kGiB});
  RemoveReplicaIndex(move.from, move.file, move.chunk_index);
  AddReplicaIndex(move.to, move.file, move.chunk_index);
  if (cov_ != nullptr) {
    // Migration branches are the bulk of a load balancer's code: each
    // distinct (reason, donor-level, receiver-level, imbalance, round-phase)
    // combination corresponds to a different path through planning, pairing,
    // throttling and verification logic.
    uint64_t h = HashCombine(static_cast<uint64_t>(move.reason), move.is_linkfile);
    if (from != nullptr) {
      h = HashCombine(h, static_cast<uint64_t>(from->UsedFraction() * 16.0));
    }
    h = HashCombine(h, static_cast<uint64_t>(to->UsedFraction() * 16.0));
    h = HashCombine(h, static_cast<uint64_t>(std::min(StorageImbalance(), 1.0) * 16.0));
    h = HashCombine(h, static_cast<uint64_t>(completed_rebalance_rounds_ % 16));
    h = HashCombine(h, move_queue_.size() / 8);
    // Only balancer-initiated moves walk the imbalance-dependent planning
    // code; recovery and evacuation are replication-repair paths.
    int multiplicity = 1;
    if (move.reason == MoveReason::kRebalance && !move.hash_driven) {
      // Load-driven leveling walks the imbalance-dependent balancer logic;
      // hash-driven relocation and replica repair are mechanical.
      multiplicity = 2 * ImbalanceMultiplicity();
    }
    cov_->HitState(CovModule::kMigration, h, multiplicity);
  }
}

void DfsCluster::AdvanceBackground(SimDuration dt) {
  if (move_queue_.empty()) {
    FinishRebalanceIfDrained();
    return;
  }
  uint64_t budget = static_cast<uint64_t>(
      static_cast<double>(dt) / 1e6 * static_cast<double>(kMigrationBandwidthPerS));
  // Each reorder verdict rotates the head message to the back of the queue;
  // budgeting the rotations to the queue length bounds one pass, so a
  // reorder-everything schedule degrades to delivery in arrival order
  // instead of livelocking.
  size_t reorder_budget = move_queue_.size();
  while (!move_queue_.empty() && budget > 0) {
    ChunkMove move = move_queue_.front();
    FaultHooks::MigrateVerdict verdict =
        hooks_ != nullptr ? hooks_->OnMigrateChunk(*this, move)
                          : FaultHooks::MigrateVerdict::kProceed;
    if (verdict == FaultHooks::MigrateVerdict::kSkip) {
      COV_BRANCH(cov_, CovModule::kMigration, 27);
      move_queue_.pop_front();
      current_move_done_bytes_ = 0;
      continue;
    }
    if (verdict == FaultHooks::MigrateVerdict::kLoseData) {
      COV_BRANCH(cov_, CovModule::kMigration, 28);
      DestroyChunkReplica(move.file, move.chunk_index, move.from);
      move_queue_.pop_front();
      current_move_done_bytes_ = 0;
      continue;
    }
    // Environment message verdicts fire once per transfer, at the message
    // boundary — a partially transferred chunk already survived its draw.
    if (env_ != nullptr && current_move_done_bytes_ == 0) {
      EnvFaultRuntime::MessageVerdict mv = env_->OnMigrationMessage(*this, move);
      if (mv == EnvFaultRuntime::MessageVerdict::kDrop) {
        // Lost in transit: the source keeps its replica (copy-then-delete
        // migration is idempotent), the balancer just never completes this
        // move in the round.
        COV_BRANCH(cov_, CovModule::kMigration, 30);
        move_queue_.pop_front();
        continue;
      }
      if (mv == EnvFaultRuntime::MessageVerdict::kReorder &&
          move_queue_.size() > 1 && reorder_budget > 0) {
        COV_BRANCH(cov_, CovModule::kMigration, 31);
        move_queue_.pop_front();
        move_queue_.push_back(move);
        --reorder_budget;
        continue;
      }
      if (mv == EnvFaultRuntime::MessageVerdict::kDuplicate) {
        // The retransmitted copy lands at the back of the queue; by the
        // time it is serviced the chunk has already moved, so ExecuteMove
        // treats it as an already-moved no-op — it only wastes bandwidth.
        COV_BRANCH(cov_, CovModule::kMigration, 32);
        move_queue_.push_back(move);
      } else if (mv == EnvFaultRuntime::MessageVerdict::kCorrupt) {
        // Checksum failure on arrival: the transfer's bandwidth is burned,
        // the source re-reads the chunk (IO charge), and the move is
        // abandoned for this round.
        COV_BRANCH(cov_, CovModule::kMigration, 33);
        uint64_t burned = std::min(budget, move.bytes);
        budget -= burned;
        if (Brick* src = FindBrick(move.from)) {
          AddLoad(src->node, {.read_ios = IoCount(move.bytes)});
        }
        move_queue_.pop_front();
        continue;
      }
    }
    // A degraded disk on either endpoint stretches the transfer: the same
    // bytes consume `slow`x the bandwidth budget. Factor 1.0 (no fault
    // runtime, or no slow-disk window covering these nodes) takes the
    // integer-only path, bit-identical to the fault-free arithmetic.
    double slow = 1.0;
    if (env_ != nullptr) {
      if (const Brick* src = FindBrick(move.from)) {
        slow = std::max(slow, env_->DiskSlowdown(*this, src->node));
      }
      if (const Brick* dst = FindBrick(move.to)) {
        slow = std::max(slow, env_->DiskSlowdown(*this, dst->node));
      }
    }
    uint64_t remaining = move.bytes > current_move_done_bytes_
                             ? move.bytes - current_move_done_bytes_
                             : 0;
    uint64_t effective = slow > 1.0 ? static_cast<uint64_t>(
                                          static_cast<double>(remaining) * slow)
                                    : remaining;
    if (effective > budget) {
      uint64_t progress = slow > 1.0 ? static_cast<uint64_t>(
                                           static_cast<double>(budget) / slow)
                                     : budget;
      current_move_done_bytes_ += progress;
      budget = 0;
      break;
    }
    budget -= effective;
    ExecuteMove(move);
    move_queue_.pop_front();
    current_move_done_bytes_ = 0;
  }
  FinishRebalanceIfDrained();
}

void DfsCluster::DestroyChunkReplica(FileId file, uint32_t chunk_index, BrickId brick) {
  ChunkPlacement* chunk = FindChunk(file, chunk_index);
  if (chunk == nullptr) {
    return;
  }
  auto replica_it = std::find(chunk->replicas.begin(), chunk->replicas.end(), brick);
  if (replica_it == chunk->replicas.end()) {
    return;
  }
  chunk->replicas.erase(replica_it);
  ReleaseBrickBytes(FindBrick(brick), chunk->bytes);
  RemoveReplicaIndex(brick, file, chunk_index);
}

void DfsCluster::FinishRebalanceIfDrained() {
  if (!move_queue_.empty()) {
    return;
  }
  if (rebalance_active_) {
    rebalance_active_ = false;
    ++completed_rebalance_rounds_;
    COV_BRANCH(cov_, CovModule::kBalancer, 29);
    EmitBalancerState(BalancerSettleState(flavor_));
    EmitBalancerState(BalancerState::kIdle);
    if (telemetry_ != nullptr) {
      telemetry_->Record(CampaignEventKind::kRebalanceRound, "drained",
                         StorageImbalance(), 0.0, current_round_moves_);
    }
    current_round_moves_ = 0;
    OnRebalanceRoundDone();
    if (hooks_ != nullptr) {
      hooks_->OnRebalanceDone(*this);
    }
  }
  // Garbage-collect fully drained offline bricks, sweeping only the tracked
  // offline bricks: a long-lived drain (stuck evacuation on an
  // under-provisioned fleet) would otherwise walk the whole ever-growing
  // brick map on every op. Collection decisions are mutually independent,
  // so sweeping in tracking order removes exactly the bricks the historical
  // map walk removed.
  size_t kept = 0;
  for (size_t i = 0; i < offline_brick_list_.size(); ++i) {
    BrickId id = offline_brick_list_[i];
    const Brick* brick = FindBrick(id);
    if (brick->used_bytes == 0 && ChunksOnBrickRef(id).empty()) {
      StorageNode* node = FindStorageNode(brick->node);
      if (node != nullptr) {
        node->bricks.erase(
            std::remove(node->bricks.begin(), node->bricks.end(), id),
            node->bricks.end());
      }
      // No aggregate updates: a drained offline brick contributes zero to
      // every maintained sum (offline => not in the online/fleet sums,
      // used_bytes == 0 => nothing in the used-all sums).
      brick_index_[id] = nullptr;
      brick_chunks_[id].shrink_to_fit();  // ids are never reused
      bricks_.erase(id);
    } else {
      offline_brick_list_[kept++] = id;
    }
  }
  offline_brick_list_.resize(kept);
}

// ---------------------------------------------------------------------------
// Load sampling / coverage

void DfsCluster::SampleLoadInto(std::vector<LoadSample>& out) const {
  out.clear();
  // Serving and crashed nodes: storage nodes, then meta nodes, each in id
  // order. Decommissioned nodes never return, so the scan skips their
  // tombstones instead of walking them.
  auto append = [&](const std::vector<NodeId>& serving, bool storage) {
    size_t first = out.size();
    for (NodeId id : serving) {
      out.push_back(NodeLoadSample(id));
    }
    size_t crashed = out.size();
    for (NodeId id : crashed_node_ids_) {
      if ((FindStorageNode(id) != nullptr) == storage) {
        out.push_back(NodeLoadSample(id));
      }
    }
    std::inplace_merge(out.begin() + first, out.begin() + crashed, out.end(),
                       [](const LoadSample& a, const LoadSample& b) {
                         return a.node < b.node;
                       });
  };
  append(ServingStorageNodeIds(), /*storage=*/true);
  append(serving_meta_nodes_, /*storage=*/false);
}

LoadSample DfsCluster::NodeLoadSample(NodeId id) const {
  LoadSample sample;
  sample.node = id;
  const NodeLoadCounters* load = nullptr;
  if (const StorageNode* node = FindStorageNode(id)) {
    sample.is_storage = true;
    sample.online = node->online;
    sample.crashed = node->crashed;
    // Draining (offline) bricks are unmounted from the balancer's point of
    // view; the load index's per-node sums already exclude them, so the
    // monitor's fleet utilization matches what the balancer can level.
    sample.used_bytes = load_.NodeUsed(id);
    sample.capacity_bytes = load_.NodeCapacity(id);
    load = &node->load;
  } else {
    const MetaNode* meta = FindMetaNode(id);
    sample.online = meta->online;
    sample.crashed = meta->crashed;
    load = &meta->load;
  }
  sample.requests = load->requests;
  sample.read_ios = load->read_ios;
  sample.write_ios = load->write_ios;
  sample.cpu_seconds = load->cpu_seconds;
  return sample;
}

std::string DfsCluster::DescribeState() const {
  std::string out;
  for (const auto& [id, brick] : bricks_) {
    const StorageNode* node = FindStorageNode(brick.node);
    out += Sprintf("brick%u(n%u%s%s %lluG/%lluG) ", id, brick.node,
                   brick.online ? "" : ",off",
                   (node != nullptr && node->Serving()) ? "" : ",dead",
                   static_cast<unsigned long long>(brick.used_bytes >> 30),
                   static_cast<unsigned long long>(brick.capacity_bytes >> 30));
  }
  return out;
}

int DfsCluster::ImbalanceMultiplicity() const {
  // Branches unlocked scale super-linearly with how far the system is from
  // balance when the code runs: near-balanced operation stays on the fast
  // path, while deep imbalance walks multi-round planning, throttling and
  // emergency-handling code that is never touched otherwise.
  double spread = std::min(StorageImbalance(), 0.6);
  return 1 + static_cast<int>(40.0 * spread * spread);
}

void DfsCluster::RecordOpCoverage(const Operation& op, const OpResult& result) {
  if (cov_ == nullptr) {
    return;
  }
  cov_->HitStatic(CovModule::kRequest,
                  static_cast<uint32_t>(op.kind) * 10 +
                      static_cast<uint32_t>(result.status.code()));
  // State-feature tuple: what the system looked like when this operator ran.
  // Distinct tuples correspond to distinct exercised branches in a real code
  // base (see DESIGN.md). Neither the class mask (from the class stamps) nor
  // the file bucket (a bit_width) rescans anything per op.
  uint8_t class_mask = 0;
  for (size_t c = 0; c < std::size(class_stamps_); ++c) {
    if (class_stamps_[c] != 0 && class_stamps_[c] + kClassWindow > total_ops_executed_) {
      class_mask |= static_cast<uint8_t>(1u << c);
    }
  }
  int imbalance_decile = static_cast<int>(std::min(StorageImbalance(), 2.0) * 12.0);
  uint64_t file_bucket =
      std::bit_width(static_cast<uint64_t>(tree_.file_count()));
  uint64_t h = HashCombine(static_cast<uint64_t>(op.kind),
                           static_cast<uint64_t>(result.status.code()));
  h = HashCombine(h, class_mask);
  h = HashCombine(h, static_cast<uint64_t>(imbalance_decile));
  h = HashCombine(h, ServingStorageNodeIds().size());
  h = HashCombine(h, meta_nodes_.size());
  h = HashCombine(h, file_bucket);
  h = HashCombine(h, rebalance_active_ ? 1u : 0u);
  h = HashCombine(h, static_cast<uint64_t>(completed_rebalance_rounds_ % 8));
  cov_->HitState(CovModule::kRequest, h);
}

// ---------------------------------------------------------------------------
// Checkpointing (DESIGN.md §11)

namespace {

void SaveLoadCounters(SnapshotWriter& writer, const NodeLoadCounters& load) {
  writer.U64(load.requests);
  writer.U64(load.read_ios);
  writer.U64(load.write_ios);
  writer.F64(load.cpu_seconds);
}

void RestoreLoadCounters(SnapshotReader& reader, NodeLoadCounters* load) {
  load->requests = reader.U64();
  load->read_ios = reader.U64();
  load->write_ios = reader.U64();
  load->cpu_seconds = reader.F64();
}

void SaveChunkMove(SnapshotWriter& writer, const ChunkMove& move) {
  writer.U64(move.file);
  writer.U32(move.chunk_index);
  writer.U32(move.from);
  writer.U32(move.to);
  writer.U64(move.bytes);
  writer.U8(static_cast<uint8_t>(move.reason));
  writer.Bool(move.is_linkfile);
  writer.Bool(move.hash_driven);
}

void RestoreChunkMove(SnapshotReader& reader, ChunkMove* move) {
  move->file = reader.U64();
  move->chunk_index = reader.U32();
  move->from = reader.U32();
  move->to = reader.U32();
  move->bytes = reader.U64();
  uint8_t reason = reader.U8();
  if (reader.ok() && reason > static_cast<uint8_t>(MoveReason::kEvacuation)) {
    reader.Fail(Sprintf("chunk move reason %u out of range", reason));
    return;
  }
  move->reason = static_cast<MoveReason>(reason);
  move->is_linkfile = reader.Bool();
  move->hash_driven = reader.Bool();
}

}  // namespace

// Ids come from monotonic counters starting at 1, and a 24-hour campaign
// allocates a few thousand at most, so a counter above 2^24 or an id the
// counters could not have issued can only come from a corrupt record —
// refused before any id sizes a vector.
Status DfsCluster::CheckRestoredIds() const {
  constexpr uint32_t kMaxIdCounter = 1u << 24;
  if (next_node_id_ > kMaxIdCounter) {
    return Status::DataLoss(Sprintf("node id counter %u out of range", next_node_id_));
  }
  if (next_brick_id_ > kMaxIdCounter) {
    return Status::DataLoss(Sprintf("brick id counter %u out of range", next_brick_id_));
  }
  for (const auto& [id, node] : meta_nodes_) {
    if (id >= next_node_id_) {
      return Status::DataLoss(
          Sprintf("meta node id %u at or above the node id counter %u", id, next_node_id_));
    }
  }
  for (const auto& [id, node] : storage_nodes_) {
    if (id >= next_node_id_) {
      return Status::DataLoss(Sprintf("storage node id %u at or above the node id counter %u",
                                      id, next_node_id_));
    }
    if (meta_nodes_.count(id) != 0) {
      return Status::DataLoss(Sprintf("node id %u is both a meta and a storage node", id));
    }
  }
  for (const auto& [id, brick] : bricks_) {
    if (id >= next_brick_id_) {
      return Status::DataLoss(
          Sprintf("brick id %u at or above the brick id counter %u", id, next_brick_id_));
    }
    if (brick.node >= next_node_id_) {
      return Status::DataLoss(Sprintf("brick %u names node %u, at or above the node id counter %u",
                                      id, brick.node, next_node_id_));
    }
  }
  return Status::Ok();
}

void DfsCluster::SaveState(SnapshotWriter& writer) const {
  writer.I64(clock_.now());
  rng_.SaveState(writer);
  tree_.SaveState(writer);

  writer.U64(meta_nodes_.size());
  for (const auto& [id, node] : meta_nodes_) {
    writer.U32(id);
    writer.Bool(node.online);
    writer.Bool(node.crashed);
    SaveLoadCounters(writer, node.load);
  }
  writer.U64(storage_nodes_.size());
  for (const auto& [id, node] : storage_nodes_) {
    writer.U32(id);
    writer.Bool(node.online);
    writer.Bool(node.crashed);
    SaveLoadCounters(writer, node.load);
  }
  writer.U64(bricks_.size());
  for (const auto& [id, brick] : bricks_) {
    writer.U32(id);
    writer.U32(brick.node);
    writer.U64(brick.capacity_bytes);
    writer.U64(brick.used_bytes);
    writer.Bool(brick.online);
    writer.U32(brick.linkfiles);
  }
  writer.U64(layouts_.size());
  for (const auto& [file, layout] : layouts_) {
    writer.U64(file);
    writer.U64(layout.chunks.size());
    for (const ChunkPlacement& chunk : layout.chunks) {
      writer.U64(chunk.bytes);
      writer.U64(chunk.replicas.size());
      for (BrickId replica : chunk.replicas) writer.U32(replica);
    }
  }
  writer.U32(next_node_id_);
  writer.U32(next_brick_id_);

  writer.U64(move_queue_.size());
  for (const ChunkMove& move : move_queue_) SaveChunkMove(writer, move);
  writer.U64(current_move_done_bytes_);
  writer.Bool(rebalance_active_);
  // v4: balancer crash/resume state — a checkpoint taken between an env
  // crash and its scheduled restart must resume with the round suspended.
  writer.Bool(balancer_crashed_);
  writer.Bool(balancer_resume_pending_);
  writer.U64(current_round_moves_);
  writer.I64(completed_rebalance_rounds_);
  writer.I64(last_balancer_check_);

  writer.U64(total_ops_executed_);
  for (uint64_t stamp : class_stamps_) writer.U64(stamp);

  SaveFlavorState(writer);
  // The census closes the record, after the flavor's state.
  writer.U32(balancer_crashes_);
}

Status DfsCluster::RestoreState(SnapshotReader& reader) {
  // The clock only moves forward; a fresh cluster starts at 0, so a plain
  // Reset + Advance lands exactly on the saved instant.
  SimTime now = reader.I64();
  if (reader.ok() && now < 0) {
    reader.Fail("negative clock value");
    return reader.status();
  }
  Status status = rng_.RestoreState(reader);
  if (!status.ok()) return status;
  status = tree_.RestoreState(reader);
  if (!status.ok()) return status;

  meta_nodes_.clear();
  meta_node_index_.clear();
  // Record floor: a node is its id, two flags and 32 bytes of load counters.
  uint64_t meta_count = reader.Count(4 + 2 + 32);
  for (uint64_t i = 0; i < meta_count && reader.ok(); ++i) {
    MetaNode node;
    node.id = reader.U32();
    node.online = reader.Bool();
    node.crashed = reader.Bool();
    RestoreLoadCounters(reader, &node.load);
    meta_nodes_[node.id] = node;
  }
  storage_nodes_.clear();
  storage_node_index_.clear();
  uint64_t storage_count = reader.Count(4 + 2 + 32);
  for (uint64_t i = 0; i < storage_count && reader.ok(); ++i) {
    StorageNode node;
    node.id = reader.U32();
    node.online = reader.Bool();
    node.crashed = reader.Bool();
    RestoreLoadCounters(reader, &node.load);
    storage_nodes_[node.id] = std::move(node);
  }
  bricks_.clear();
  brick_index_.clear();
  brick_chunks_.clear();
  offline_brick_list_.clear();
  uint64_t brick_count = reader.Count(4 + 4 + 8 + 8 + 1 + 4);
  for (uint64_t i = 0; i < brick_count && reader.ok(); ++i) {
    Brick brick;
    brick.id = reader.U32();
    brick.node = reader.U32();
    brick.capacity_bytes = reader.U64();
    brick.used_bytes = reader.U64();
    brick.online = reader.Bool();
    brick.linkfiles = reader.U32();
    if (!brick.online) {
      offline_brick_list_.push_back(brick.id);
    }
    bricks_[brick.id] = brick;
  }
  layouts_.clear();
  uint64_t layout_count = reader.Count(8 + 8);
  for (uint64_t i = 0; i < layout_count && reader.ok(); ++i) {
    FileId file = reader.U64();
    FileLayout layout;
    uint64_t chunk_count = reader.Count(8 + 8);
    layout.chunks.resize(static_cast<size_t>(chunk_count));
    for (uint32_t c = 0; c < layout.chunks.size(); ++c) {
      ChunkPlacement& chunk = layout.chunks[c];
      chunk.bytes = reader.U64();
      uint64_t replica_count = reader.Count(4);
      if (replica_count > static_cast<uint64_t>(kReplication)) {
        reader.Fail(Sprintf("file %llu chunk %u holds %llu replicas, more than %d",
                            static_cast<unsigned long long>(file), c,
                            static_cast<unsigned long long>(replica_count), kReplication));
        break;
      }
      for (uint64_t r = 0; r < replica_count && reader.ok(); ++r) {
        BrickId replica = reader.U32();
        if (reader.ok() && bricks_.count(replica) == 0) {
          reader.Fail(Sprintf("chunk replica references unknown brick %u", replica));
        }
        chunk.replicas.push_back(replica);
      }
      if (!reader.ok()) break;
    }
    if (!reader.ok()) break;
    layouts_[file] = std::move(layout);
  }
  next_node_id_ = reader.U32();
  next_brick_id_ = reader.U32();
  if (reader.ok()) {
    if (Status ids = CheckRestoredIds(); !ids.ok()) {
      reader.Fail(ids.message());
      return reader.status();
    }
    // A node's brick list is derived: its bricks, in id order.
    for (const auto& [id, brick] : bricks_) {
      auto owner = storage_nodes_.find(brick.node);
      if (owner == storage_nodes_.end()) {
        reader.Fail(
            Sprintf("brick %u names node %u, which is not a storage node", id, brick.node));
        return reader.status();
      }
      owner->second.bricks.push_back(id);
    }
  }

  move_queue_.clear();
  uint64_t move_count = reader.Count(8 + 4 + 4 + 4 + 8 + 1 + 2);
  for (uint64_t i = 0; i < move_count && reader.ok(); ++i) {
    ChunkMove move;
    RestoreChunkMove(reader, &move);
    move_queue_.push_back(move);
  }
  current_move_done_bytes_ = reader.U64();
  rebalance_active_ = reader.Bool();
  balancer_crashed_ = reader.Bool();
  balancer_resume_pending_ = reader.Bool();
  if (reader.ok() && balancer_crashed_ && rebalance_active_) {
    reader.Fail("balancer recorded as both crashed and actively rebalancing");
    return reader.status();
  }
  current_round_moves_ = reader.U64();
  completed_rebalance_rounds_ = static_cast<int>(reader.I64());
  last_balancer_check_ = reader.I64();

  total_ops_executed_ = reader.U64();
  for (size_t c = 0; c < std::size(class_stamps_) && reader.ok(); ++c) {
    class_stamps_[c] = reader.U64();
    if (reader.ok() && class_stamps_[c] > total_ops_executed_) {
      reader.Fail(Sprintf("operation class %zu stamped at op %llu, after the %llu ops executed", c,
                          static_cast<unsigned long long>(class_stamps_[c]),
                          static_cast<unsigned long long>(total_ops_executed_)));
    }
  }
  if (!reader.ok()) return reader.status();

  serving_meta_nodes_.clear();
  crashed_node_ids_.clear();
  for (const auto& [id, node] : storage_nodes_) {
    if (node.crashed) crashed_node_ids_.push_back(id);
  }
  for (const auto& [id, node] : meta_nodes_) {
    if (node.Serving()) serving_meta_nodes_.push_back(id);
    if (node.crashed) crashed_node_ids_.push_back(id);
  }
  std::sort(crashed_node_ids_.begin(), crashed_node_ids_.end());

  clock_.Reset();
  clock_.Advance(now);
  // The id-indexed side indexes and the load index, through the same calls
  // the live cluster makes: every node, then every brick, in id order.
  load_.Clear();
  for (auto& [id, node] : meta_nodes_) {
    IndexMetaNodePtr(id, &node);
  }
  for (auto& [id, node] : storage_nodes_) {
    IndexStorageNodePtr(id, &node);
    load_.AddNode(id, node.Serving());
  }
  for (auto& [id, brick] : bricks_) {
    IndexBrickPtr(id, &brick);
    load_.AddBrick(brick);
  }
  // The replica index is derived, never serialized.
  for (const auto& [file, layout] : layouts_) {
    IndexLayout(file, layout);
  }
  ++membership_epoch_;
  InvalidateHomes();
  if (Status audit = AuditCluster(*this); !audit.ok()) {
    return Status::DataLoss("restored cluster fails the audit: " + audit.message());
  }
  // Recompute derived flavor structures against the restored topology, then
  // let the flavor restore its persistent extras. This is deliberately
  // OnTopologyChangedInternal() and not NotifyTopologyChanged(): the public
  // notifier also fires coverage and fault hooks, which would corrupt the
  // separately restored coverage bitmap and fault runtime.
  OnTopologyChangedInternal();
  status = RestoreFlavorState(reader);
  if (!status.ok()) return status;
  balancer_crashes_ = reader.U32();
  return reader.status();
}

}  // namespace themis
