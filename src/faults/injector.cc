#include "src/faults/injector.h"

#include <algorithm>
#include <bit>

#include "src/common/bytes.h"
#include "src/common/log.h"
#include "src/common/strings.h"

namespace themis {

namespace {

constexpr size_t kSteadinessWindow = 8;
// Per-operation CPU skew injected by an active kCpuSkew fault (virtual secs).
constexpr double kCpuSkewPerOp = 0.45;
// Per-operation request skew injected by an active kNetworkSkew fault.
constexpr uint64_t kNetSkewRequestsPerOp = 4;
constexpr uint64_t kNetSkewIosPerOp = 6;
// Fraction of rebalance moves an active kMigrationDataLoss fault destroys.
constexpr double kDataLossRate = 0.5;

}  // namespace

FaultInjector::FaultInjector(std::vector<FaultSpec> specs, uint64_t seed)
    : rng_(seed ^ 0x5eedfa17ULL) {
  faults_.reserve(specs.size());
  for (FaultSpec& spec : specs) {
    FaultRuntime runtime;
    runtime.spec = std::move(spec);
    faults_.push_back(std::move(runtime));
  }
}

bool FaultInjector::EffectTargetsStorage(EffectKind effect) const {
  switch (effect) {
    case EffectKind::kHotspotAccumulation:
    case EffectKind::kMigrationDataLoss:
    case EffectKind::kLinkfileUnlink:
    case EffectKind::kPlanSkipsVictim:
    case EffectKind::kWrongTargetMigration:
    case EffectKind::kRebalanceHang:
      return true;
    case EffectKind::kCpuSkew:
    case EffectKind::kNetworkSkew:
    case EffectKind::kCrashNode:
      return false;
  }
  return false;
}

void FaultInjector::OnOperationExecuted(DfsCluster& dfs, const Operation& op,
                                        const OpResult& result) {
  (void)result;
  HistoryEntry entry;
  entry.kind = op.kind;
  entry.rounds = dfs.completed_rebalance_rounds();
  entry.imbalance = dfs.StorageImbalance();
  history_.push_back(entry);
  StampOp(op.kind, TouchesHottestBrick(dfs, op));
  UpdateVarianceStreaks(dfs);
  EvaluateTriggers(dfs);
  ApplyContinuousEffects(dfs);
}

bool FaultInjector::TouchesHottestBrick(const DfsCluster& dfs, const Operation& op) const {
  // Counts only *growth* pressure on the hotspot: a size-changing request
  // whose write lands on the currently hottest brick (appends extend the
  // file's tail in place). Random operand choice hits this with probability
  // ~replication/#bricks per resize op; a workload steered by variance
  // feedback hits it on nearly every iteration.
  if (op.kind != OpKind::kAppend && op.kind != OpKind::kOverwrite &&
      op.kind != OpKind::kTruncateOverwrite) {
    return false;
  }
  Result<FileId> file = dfs.tree().FileIdOf(op.path);
  if (!file.ok()) {
    return false;
  }
  // A strict-max scan over the serving-brick list (smallest id on ties).
  BrickId hottest = dfs.HottestServingBrick();
  if (hottest == kInvalidBrick) {
    return false;
  }
  auto layout_it = dfs.file_layouts().find(*file);
  if (layout_it == dfs.file_layouts().end() || layout_it->second.chunks.empty()) {
    return false;
  }
  return layout_it->second.chunks.back().HasReplicaOn(hottest);
}

double FaultInjector::Steadiness() const {
  if (history_.size() < 2 * kSteadinessWindow) {
    return 0.0;
  }
  // Multiset overlap between the two most recent 8-op windows.
  int counts[kTotalOpKindCount] = {0};
  size_t start = history_.size() - 2 * kSteadinessWindow;
  for (size_t i = 0; i < kSteadinessWindow; ++i) {
    ++counts[static_cast<int>(history_[start + i].kind)];
  }
  int overlap = 0;
  for (size_t i = 0; i < kSteadinessWindow; ++i) {
    int kind = static_cast<int>(history_[start + kSteadinessWindow + i].kind);
    if (counts[kind] > 0) {
      --counts[kind];
      ++overlap;
    }
  }
  return static_cast<double>(overlap) / static_cast<double>(kSteadinessWindow);
}

void FaultInjector::UpdateVarianceStreaks(const DfsCluster& dfs) {
  double imbalance = dfs.StorageImbalance();
  for (FaultRuntime& fault : faults_) {
    if (fault.spec.trigger.min_variance_streak <= 0) {
      continue;
    }
    if (imbalance >= fault.spec.trigger.min_variance) {
      ++fault.variance_streak;
    } else {
      fault.variance_streak = 0;
    }
  }
}

void FaultInjector::StampOp(OpKind kind, bool hot_touch) {
  ++ops_seen_;
  kind_stamps_[static_cast<size_t>(kind)] = ops_seen_;
  class_stamps_[static_cast<size_t>(ClassOf(kind))] = ops_seen_;
  hot_touches_ = (hot_touches_ << 1) | (hot_touch ? 1u : 0u);
}

bool FaultInjector::TriggerSatisfied(const FaultRuntime& fault,
                                     const DfsCluster& dfs) const {
  // Every check is pure, so their order only decides the cost: the gates
  // that read no op window come first.
  const TriggerRequirement& trigger = fault.spec.trigger;
  size_t window = std::min(static_cast<size_t>(trigger.window), history_.size());
  if (static_cast<int>(window) < trigger.min_window_ops) {
    return false;
  }
  if (dfs.completed_rebalance_rounds() < trigger.min_rebalance_rounds) {
    return false;
  }
  if (trigger.min_rebalances_in_window > 0) {
    int rounds_in_window =
        dfs.completed_rebalance_rounds() - history_[history_.size() - window].rounds;
    if (rounds_in_window < trigger.min_rebalances_in_window) {
      return false;
    }
  }
  if (dfs.StorageImbalance() < trigger.min_variance) {
    return false;
  }
  if (trigger.min_variance_streak > 0 &&
      fault.variance_streak < trigger.min_variance_streak) {
    return false;
  }
  auto saw_class = [&](OpClass cls) {
    return InWindow(class_stamps_[static_cast<size_t>(cls)], window);
  };
  if (trigger.needs_requests && !saw_class(OpClass::kFile)) {
    return false;
  }
  if (trigger.needs_node_ops && !saw_class(OpClass::kNode)) {
    return false;
  }
  if (trigger.needs_volume_ops && !saw_class(OpClass::kVolume)) {
    return false;
  }
  // Env-gated bugs (DESIGN.md §14): a fault-free campaign can never satisfy
  // this — kEnvFault ops are only ever generated when the campaign enables
  // environment faults — so these specs provably cannot trigger without them.
  if (trigger.needs_env_faults && !saw_class(OpClass::kEnvFault)) {
    return false;
  }
  if (trigger.min_distinct_kinds > 0) {
    int distinct = 0;
    for (uint64_t stamp : kind_stamps_) {
      distinct += InWindow(stamp, window) ? 1 : 0;
    }
    if (distinct < trigger.min_distinct_kinds) {
      return false;
    }
  }
  for (OpKind required : trigger.required_kinds) {
    if (!InWindow(kind_stamps_[static_cast<size_t>(required)], window)) {
      return false;
    }
  }
  if (trigger.min_hotspot_touches > 0 &&
      std::popcount(hot_touches_ & ((1u << window) - 1)) < trigger.min_hotspot_touches) {
    return false;
  }
  if (trigger.min_steadiness > 0.0 && Steadiness() < trigger.min_steadiness) {
    return false;
  }
  if (trigger.needs_accumulation) {
    if (history_.size() < 12) {
      return false;
    }
    double before = history_[history_.size() - 12].imbalance;
    if (history_.back().imbalance < before + 0.03) {
      return false;
    }
  }
  return true;
}

void FaultInjector::EvaluateTriggers(DfsCluster& dfs) {
  for (FaultRuntime& fault : faults_) {
    if (fault.active || fault.spec.environment_gated) {
      continue;
    }
    if (fault.spec.platform != dfs.flavor()) {
      continue;
    }
    if (!TriggerSatisfied(fault, dfs)) {
      continue;
    }
    ++fault.satisfied_evals;
    if (!rng_.Chance(fault.spec.trigger.probability)) {
      continue;
    }
    Activate(fault, dfs);
  }
}

void FaultInjector::PickVictim(FaultRuntime& fault, DfsCluster& dfs) {
  // Storage effects pin the brick with the highest utilization (the nascent
  // hotspot); CPU effects pin a storage node; network effects pin a
  // metadata/gateway node. Deterministic given the cluster state.
  if (EffectTargetsStorage(fault.spec.effect) ||
      fault.spec.effect == EffectKind::kCrashNode) {
    fault.victim_brick = dfs.HottestServingBrick();
    const Brick* brick = dfs.FindBrick(fault.victim_brick);
    fault.victim_node = brick != nullptr ? brick->node : kInvalidNode;
    return;
  }
  if (fault.spec.effect == EffectKind::kCpuSkew) {
    std::vector<NodeId> nodes = dfs.ServingStorageNodeIds();
    fault.victim_node =
        nodes.empty() ? kInvalidNode
                      : nodes[Mix64(HashCombine(0x1234, fault.trigger_count)) % nodes.size()];
    return;
  }
  // kNetworkSkew: a metadata node.
  std::vector<NodeId> mns = dfs.ListMetaNodes();
  fault.victim_node =
      mns.empty() ? kInvalidNode
                  : mns[Mix64(HashCombine(0x4321, fault.trigger_count)) % mns.size()];
}

void FaultInjector::Activate(FaultRuntime& fault, DfsCluster& dfs) {
  fault.active = true;
  ++fault.trigger_count;
  PickVictim(fault, dfs);
  THEMIS_LOG(kInfo, "fault %s triggered at t=%.1fmin (victim node %u)",
             fault.spec.id.c_str(), ToMinutes(dfs.Now()), fault.victim_node);
  if (fault.spec.effect == EffectKind::kCrashNode && fault.victim_node != kInvalidNode) {
    dfs.CrashNode(fault.victim_node);
  }
}

void FaultInjector::ApplyContinuousEffects(DfsCluster& dfs) {
  for (FaultRuntime& fault : faults_) {
    if (!fault.active) {
      continue;
    }
    switch (fault.spec.effect) {
      case EffectKind::kCpuSkew:
        if (fault.victim_node != kInvalidNode) {
          dfs.AddLoad(fault.victim_node,
                      {.cpu_seconds = kCpuSkewPerOp * (1.0 + fault.spec.severity)});
        }
        break;
      case EffectKind::kNetworkSkew:
        if (fault.victim_node != kInvalidNode) {
          dfs.AddLoad(fault.victim_node,
                      {.requests = kNetSkewRequestsPerOp +
                                   static_cast<uint64_t>(fault.spec.severity * 4.0),
                       .read_ios = kNetSkewIosPerOp,
                       .write_ios = kNetSkewIosPerOp});
        }
        break;
      case EffectKind::kCrashNode:
        // One-shot; nothing continuous.
        break;
      default: {
        // Storage effects. A pass reads only the victim and cluster state
        // that moves load_epoch(), so one that left the epoch unchanged moved
        // nothing, and would move nothing again until either changes.
        const uint64_t epoch = dfs.load_epoch();
        if (fault.futile_epoch == epoch && fault.futile_victim == fault.victim_brick) {
          break;
        }
        SkewTowardVictim(fault, dfs);
        if (dfs.load_epoch() == epoch) {
          fault.futile_epoch = epoch;
          fault.futile_victim = fault.victim_brick;
        }
        break;
      }
    }
  }
}

void FaultInjector::SkewTowardVictim(FaultRuntime& fault, DfsCluster& dfs) {
  // The bug keeps steering data onto the victim until the imbalance reaches
  // the fault's characteristic magnitude (Finding 6: imbalance accumulates
  // through many small variances).
  if (dfs.StorageImbalance() >= fault.spec.severity) {
    return;
  }
  Brick* victim = dfs.FindBrick(fault.victim_brick);
  if (victim == nullptr || !victim->online) {
    PickVictim(fault, dfs);
    victim = dfs.FindBrick(fault.victim_brick);
    if (victim == nullptr) {
      return;
    }
  }
  // Move a slice toward the victim, draining the lightest bricks first.
  // A single donor can run out of movable chunks (its data may already
  // have replicas on the victim), so spread the step across several.
  donors_.clear();
  for (BrickId id : dfs.ServingBricks()) {
    const Brick* brick = dfs.FindBrick(id);
    if (brick->node == victim->node || brick->used_bytes == 0) {
      continue;
    }
    donors_.emplace_back(brick->UsedFraction(), id);
  }
  std::sort(donors_.begin(), donors_.end());
  uint64_t remaining = std::max<uint64_t>(victim->capacity_bytes / 64, kGiB);
  for (const auto& [fraction, donor] : donors_) {
    (void)fraction;
    if (remaining == 0) {
      break;
    }
    remaining -= std::min(remaining, dfs.SkewBytes(donor, fault.victim_brick, remaining));
  }
}

void FaultInjector::OnRebalancePlanned(DfsCluster& dfs, MigrationPlan& plan) {
  for (const FaultRuntime& fault : faults_) {
    if (!fault.active) {
      continue;
    }
    switch (fault.spec.effect) {
      case EffectKind::kHotspotAccumulation:
      case EffectKind::kPlanSkipsVictim:
      case EffectKind::kMigrationDataLoss:
      case EffectKind::kRebalanceHang: {
        // The (mis)calculated plan never drains the hotspot: moves sourced at
        // the victim vanish (HDFS-13279's stale clusterMap had exactly this
        // consequence — the hotspot's data "is not migrated out").
        NodeId victim_node = fault.victim_node;
        plan.erase(std::remove_if(plan.begin(), plan.end(),
                                  [&](const ChunkMove& move) {
                                    const Brick* from = dfs.FindBrick(move.from);
                                    return from != nullptr && from->node == victim_node;
                                  }),
                   plan.end());
        break;
      }
      case EffectKind::kWrongTargetMigration: {
        // The corrupted rebalance list points every move at the hotspot.
        Brick* victim = dfs.FindBrick(fault.victim_brick);
        if (victim == nullptr) {
          break;
        }
        for (ChunkMove& move : plan) {
          if (move.from != fault.victim_brick) {
            move.to = fault.victim_brick;
          }
        }
        break;
      }
      default:
        break;
    }
  }
}

FaultHooks::MigrateVerdict FaultInjector::OnMigrateChunk(DfsCluster& dfs,
                                                         const ChunkMove& move) {
  for (FaultRuntime& fault : faults_) {
    if (!fault.active) {
      continue;
    }
    if (fault.spec.effect == EffectKind::kLinkfileUnlink && move.is_linkfile) {
      // Fig. 11: the linkfile shares the datafile's hashed id, so the unlink
      // destroys the *data* that was just migrated.
      const ChunkPlacement* chunk = dfs.FindChunk(move.file, move.chunk_index);
      if (chunk != nullptr && !chunk->replicas.empty()) {
        dfs.DestroyChunkReplica(move.file, move.chunk_index, chunk->replicas.front());
      }
      return MigrateVerdict::kSkip;
    }
    if (fault.spec.effect == EffectKind::kMigrationDataLoss &&
        move.reason == MoveReason::kRebalance && !move.is_linkfile &&
        rng_.Chance(kDataLossRate)) {
      return MigrateVerdict::kLoseData;
    }
  }
  return MigrateVerdict::kProceed;
}

bool FaultInjector::SuppressRebalance(const DfsCluster& dfs) {
  (void)dfs;
  for (const FaultRuntime& fault : faults_) {
    if (fault.active && fault.spec.effect == EffectKind::kRebalanceHang) {
      return true;
    }
  }
  return false;
}

void FaultInjector::OnClusterReset(DfsCluster& dfs) {
  (void)dfs;
  for (FaultRuntime& fault : faults_) {
    fault.active = false;
    fault.victim_brick = kInvalidBrick;
    fault.victim_node = kInvalidNode;
    fault.variance_streak = 0;
    fault.futile_epoch = FaultRuntime::kNoEpoch;
  }
  history_.clear();
}

std::vector<std::string> FaultInjector::ActiveFaultIds() const {
  std::vector<std::string> out;
  for (const FaultRuntime& fault : faults_) {
    if (fault.active) {
      out.push_back(fault.spec.id);
    }
  }
  return out;
}

bool FaultInjector::AnyActive() const {
  for (const FaultRuntime& fault : faults_) {
    if (fault.active) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> FaultInjector::EverTriggeredIds() const {
  std::vector<std::string> out;
  for (const FaultRuntime& fault : faults_) {
    if (fault.trigger_count > 0) {
      out.push_back(fault.spec.id);
    }
  }
  return out;
}

void FaultInjector::SaveState(SnapshotWriter& writer) const {
  writer.U64(faults_.size());
  for (const FaultRuntime& fault : faults_) {
    writer.Str(fault.spec.id);
    writer.Bool(fault.active);
    writer.I64(fault.trigger_count);
    writer.U32(fault.victim_brick);
    writer.U32(fault.victim_node);
    writer.I64(fault.variance_streak);
    writer.U64(fault.satisfied_evals);
  }
  // The history, oldest first: each op's kind, rounds, imbalance and
  // whether it touched the hottest brick.
  const size_t ops = history_.size();
  writer.U64(ops);
  for (size_t i = 0; i < ops; ++i) {
    writer.U8(static_cast<uint8_t>(history_[i].kind));
    writer.I64(history_[i].rounds);
    writer.F64(history_[i].imbalance);
    writer.Bool(((hot_touches_ >> (ops - 1 - i)) & 1u) != 0);
  }
  rng_.SaveState(writer);
}

Status FaultInjector::RestoreState(SnapshotReader& reader) {
  uint64_t count = reader.U64();
  if (reader.ok() && count != faults_.size()) {
    reader.Fail(Sprintf("snapshot has %llu faults but this campaign "
                        "configures %zu (fault set mismatch)",
                        static_cast<unsigned long long>(count),
                        faults_.size()));
  }
  for (FaultRuntime& fault : faults_) {
    if (!reader.ok()) break;
    std::string id = reader.Str();
    if (reader.ok() && id != fault.spec.id) {
      reader.Fail(Sprintf("snapshot fault id \"%s\" does not match "
                          "configured fault \"%s\"",
                          id.c_str(), fault.spec.id.c_str()));
      break;
    }
    fault.active = reader.Bool();
    fault.trigger_count = static_cast<int>(reader.I64());
    fault.victim_brick = reader.U32();
    fault.victim_node = reader.U32();
    fault.variance_streak = static_cast<int>(reader.I64());
    fault.satisfied_evals = reader.U64();
    fault.futile_epoch = FaultRuntime::kNoEpoch;
  }
  // The history, at most kHistoryLimit entries; replaying it re-stamps it.
  history_.clear();
  uint64_t ops = reader.Count(1 + 8 + 8 + 1);
  if (reader.ok() && ops > kHistoryLimit) {
    reader.Fail(Sprintf("fault history holds %llu ops, more than %zu",
                        static_cast<unsigned long long>(ops), kHistoryLimit));
  }
  for (uint64_t i = 0; i < ops && reader.ok(); ++i) {
    uint8_t op = reader.U8();
    HistoryEntry entry;
    entry.rounds = static_cast<int>(reader.I64());
    entry.imbalance = reader.F64();
    bool hot_touch = reader.Bool();
    if (reader.ok() && op >= kTotalOpKindCount) {
      reader.Fail(Sprintf("history op kind %u out of range", op));
    }
    if (!reader.ok()) break;
    entry.kind = static_cast<OpKind>(op);
    history_.push_back(entry);
    StampOp(entry.kind, hot_touch);
  }
  Status status = rng_.RestoreState(reader);
  if (!status.ok()) return status;
  return reader.status();
}

}  // namespace themis
