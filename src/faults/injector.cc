#include "src/faults/injector.h"

#include <algorithm>
#include <bit>

#include "src/common/bytes.h"
#include "src/common/log.h"
#include "src/common/strings.h"

namespace themis {

namespace {

constexpr size_t kHistoryLimit = 16;
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
    case EffectKind::kMetadataDesync:
      return false;
  }
  return false;
}

bool FaultInjector::SuppressMetadataSync(const DfsCluster& dfs, NodeId node) {
  (void)dfs;
  for (const FaultRuntime& fault : faults_) {
    if (fault.active && fault.spec.effect == EffectKind::kMetadataDesync &&
        fault.victim_node == node) {
      return true;
    }
  }
  return false;
}

void FaultInjector::OnOperationExecuted(DfsCluster& dfs, const Operation& op,
                                        const OpResult& result) {
  (void)result;
  recent_ops_.push_back(op.kind);
  rounds_at_op_.push_back(dfs.completed_rebalance_rounds());
  imbalance_at_op_.push_back(dfs.StorageImbalance());
  hot_touch_at_op_.push_back(TouchesHottestBrick(dfs, op));
  while (recent_ops_.size() > kHistoryLimit) {
    recent_ops_.pop_front();
    rounds_at_op_.pop_front();
    imbalance_at_op_.pop_front();
    hot_touch_at_op_.pop_front();
  }
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
  if (recent_ops_.size() < 2 * kSteadinessWindow) {
    return 0.0;
  }
  // Multiset overlap between the two most recent 8-op windows.
  int counts[kTotalOpKindCount] = {0};
  size_t start = recent_ops_.size() - 2 * kSteadinessWindow;
  for (size_t i = 0; i < kSteadinessWindow; ++i) {
    ++counts[static_cast<int>(recent_ops_[start + i])];
  }
  int overlap = 0;
  for (size_t i = 0; i < kSteadinessWindow; ++i) {
    int kind = static_cast<int>(recent_ops_[start + kSteadinessWindow + i]);
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
      if (fault.variance_streak == 0) {
        fault.rounds_at_streak_start = dfs.completed_rebalance_rounds();
      }
      ++fault.variance_streak;
    } else {
      fault.variance_streak = 0;
    }
  }
}

void FaultInjector::SummarizeWindows() {
  static_assert(std::tuple_size_v<decltype(windows_)> == kHistoryLimit + 1,
                "one summary per window length, the empty window included");
  WindowSummary summary;
  windows_[0] = summary;
  const size_t ops = recent_ops_.size();
  for (size_t w = 1; w <= ops; ++w) {
    OpKind kind = recent_ops_[ops - w];
    summary.kinds |= 1u << static_cast<unsigned>(kind);
    summary.classes |= 1u << static_cast<unsigned>(ClassOf(kind));
    summary.hot_touches += hot_touch_at_op_[ops - w] ? 1 : 0;
    windows_[w] = summary;
  }
}

bool FaultInjector::TriggerSatisfied(const FaultRuntime& fault,
                                     const DfsCluster& dfs) const {
  const TriggerRequirement& trigger = fault.spec.trigger;
  size_t window = std::min(static_cast<size_t>(trigger.window), recent_ops_.size());
  if (static_cast<int>(window) < trigger.min_window_ops) {
    return false;
  }
  size_t start = recent_ops_.size() - window;
  const WindowSummary& seen = windows_[window];
  auto saw_class = [&](OpClass cls) {
    return (seen.classes & (1u << static_cast<unsigned>(cls))) != 0;
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
  if (std::popcount(seen.kinds) < trigger.min_distinct_kinds) {
    return false;
  }
  for (OpKind required : trigger.required_kinds) {
    if ((seen.kinds & (1u << static_cast<unsigned>(required))) == 0) {
      return false;
    }
  }
  if (dfs.completed_rebalance_rounds() < trigger.min_rebalance_rounds) {
    return false;
  }
  if (trigger.min_rebalances_in_window > 0) {
    int rounds_in_window = dfs.completed_rebalance_rounds() - rounds_at_op_[start];
    if (rounds_in_window < trigger.min_rebalances_in_window) {
      return false;
    }
  }
  if (dfs.StorageImbalance() < trigger.min_variance) {
    return false;
  }
  if (trigger.min_steadiness > 0.0 && Steadiness() < trigger.min_steadiness) {
    return false;
  }
  if (trigger.needs_accumulation) {
    if (imbalance_at_op_.size() < 12) {
      return false;
    }
    double before = imbalance_at_op_[imbalance_at_op_.size() - 12];
    if (imbalance_at_op_.back() < before + 0.03) {
      return false;
    }
  }
  if (trigger.min_hotspot_touches > 0 && seen.hot_touches < trigger.min_hotspot_touches) {
    return false;
  }
  if (trigger.min_variance_streak > 0 &&
      fault.variance_streak < trigger.min_variance_streak) {
    return false;
  }
  return true;
}

void FaultInjector::EvaluateTriggers(DfsCluster& dfs) {
  bool summarized = false;
  for (FaultRuntime& fault : faults_) {
    if (fault.active || fault.spec.environment_gated) {
      continue;
    }
    if (fault.spec.platform != dfs.flavor()) {
      continue;
    }
    if (!summarized) {
      SummarizeWindows();
      summarized = true;
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
  // kNetworkSkew / kMetadataDesync: a metadata node.
  std::vector<NodeId> mns = dfs.ListMetaNodes();
  fault.victim_node =
      mns.empty() ? kInvalidNode
                  : mns[Mix64(HashCombine(0x4321, fault.trigger_count)) % mns.size()];
}

void FaultInjector::Activate(FaultRuntime& fault, DfsCluster& dfs) {
  fault.active = true;
  fault.triggered_at = dfs.Now();
  ++fault.trigger_count;
  PickVictim(fault, dfs);
  THEMIS_LOG(kInfo, "fault %s triggered at t=%.1fmin (victim node %u)",
             fault.spec.id.c_str(), ToMinutes(fault.triggered_at), fault.victim_node);
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
      case EffectKind::kMetadataDesync:
        // One-shot / hook-driven; nothing continuous.
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
  std::vector<std::pair<double, BrickId>> donors;
  for (BrickId id : dfs.ServingBricks()) {
    const Brick* brick = dfs.FindBrick(id);
    if (brick->node == victim->node || brick->used_bytes == 0) {
      continue;
    }
    donors.emplace_back(brick->UsedFraction(), id);
  }
  std::sort(donors.begin(), donors.end());
  uint64_t remaining = std::max<uint64_t>(victim->capacity_bytes / 64, kGiB);
  for (const auto& [fraction, donor] : donors) {
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
      auto layout_it = dfs.file_layouts().find(move.file);
      if (layout_it != dfs.file_layouts().end() &&
          move.chunk_index < layout_it->second.chunks.size()) {
        const ChunkPlacement& chunk = layout_it->second.chunks[move.chunk_index];
        if (!chunk.replicas.empty()) {
          dfs.DestroyChunkReplica(move.file, move.chunk_index, chunk.replicas.front());
        }
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
    fault.rounds_at_streak_start = 0;
    fault.futile_epoch = FaultRuntime::kNoEpoch;
  }
  recent_ops_.clear();
  rounds_at_op_.clear();
  imbalance_at_op_.clear();
  hot_touch_at_op_.clear();
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
    writer.I64(fault.triggered_at);
    writer.I64(fault.trigger_count);
    writer.U32(fault.victim_brick);
    writer.U32(fault.victim_node);
    writer.I64(fault.variance_streak);
    writer.I64(fault.rounds_at_streak_start);
    writer.U64(fault.satisfied_evals);
  }
  writer.U64(recent_ops_.size());
  for (OpKind op : recent_ops_) writer.U8(static_cast<uint8_t>(op));
  writer.U64(rounds_at_op_.size());
  for (int rounds : rounds_at_op_) writer.I64(rounds);
  writer.U64(imbalance_at_op_.size());
  for (double imbalance : imbalance_at_op_) writer.F64(imbalance);
  writer.U64(hot_touch_at_op_.size());
  for (bool hot : hot_touch_at_op_) writer.Bool(hot);
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
    fault.triggered_at = reader.I64();
    fault.trigger_count = static_cast<int>(reader.I64());
    fault.victim_brick = reader.U32();
    fault.victim_node = reader.U32();
    fault.variance_streak = static_cast<int>(reader.I64());
    fault.rounds_at_streak_start = static_cast<int>(reader.I64());
    fault.satisfied_evals = reader.U64();
    fault.futile_epoch = FaultRuntime::kNoEpoch;
  }
  uint64_t ops = reader.Count(1);
  recent_ops_.clear();
  for (uint64_t i = 0; i < ops && reader.ok(); ++i) {
    uint8_t op = reader.U8();
    if (reader.ok() && op >= kTotalOpKindCount) {
      reader.Fail(Sprintf("history op kind %u out of range", op));
      break;
    }
    recent_ops_.push_back(static_cast<OpKind>(op));
  }
  uint64_t rounds = reader.Count(8);
  rounds_at_op_.clear();
  for (uint64_t i = 0; i < rounds && reader.ok(); ++i) {
    rounds_at_op_.push_back(static_cast<int>(reader.I64()));
  }
  uint64_t imbalances = reader.Count(8);
  imbalance_at_op_.clear();
  for (uint64_t i = 0; i < imbalances && reader.ok(); ++i) {
    imbalance_at_op_.push_back(reader.F64());
  }
  uint64_t hots = reader.Count(1);
  hot_touch_at_op_.clear();
  for (uint64_t i = 0; i < hots && reader.ok(); ++i) {
    hot_touch_at_op_.push_back(reader.Bool());
  }
  // The window summaries index all four histories by one position.
  if (reader.ok() && (recent_ops_.size() > kHistoryLimit ||
                      rounds_at_op_.size() != recent_ops_.size() ||
                      imbalance_at_op_.size() != recent_ops_.size() ||
                      hot_touch_at_op_.size() != recent_ops_.size())) {
    reader.Fail("fault history windows disagree in length");
  }
  Status status = rng_.RestoreState(reader);
  if (!status.ok()) return status;
  return reader.status();
}

}  // namespace themis
