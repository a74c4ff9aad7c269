#include "src/faults/env_fault.h"

#include <algorithm>

#include "src/common/strings.h"

namespace themis {

namespace {

uint64_t ClampRate(uint64_t value) {
  return std::clamp(value, kEnvMinRatePermille, kEnvMaxRatePermille);
}

}  // namespace

OpResult EnvFaultInjector::ExecuteEnvOp(DfsCluster& dfs, const Operation& op) {
  OpResult result;
  switch (op.kind) {
    case OpKind::kEnvMsgLoss:
      msg_loss_permille_ = ClampRate(op.size);
      break;
    case OpKind::kEnvMsgReorder:
      msg_reorder_permille_ = ClampRate(op.size);
      break;
    case OpKind::kEnvMsgDuplicate:
      msg_duplicate_permille_ = ClampRate(op.size);
      break;
    case OpKind::kEnvMsgCorrupt:
      msg_corrupt_permille_ = ClampRate(op.size);
      break;
    case OpKind::kEnvSlowDisk: {
      if (dfs.FindStorageNode(op.node) == nullptr) {
        result.status =
            Status::NotFound(Sprintf("storage node %u does not exist", op.node));
        return result;
      }
      SlowDisk& slot = slow_disks_[op.node];
      slot.percent = std::clamp(op.size, kEnvMinSlowFactorPercent,
                                kEnvMaxSlowFactorPercent);
      slot.until = dfs.Now() + kEnvSlowDiskWindow;
      break;
    }
    case OpKind::kEnvCrashNode: {
      bool crashed = false;
      if (const StorageNode* sn = dfs.FindStorageNode(op.node)) {
        crashed = sn->crashed;
      } else if (auto it = dfs.meta_nodes().find(op.node);
                 it != dfs.meta_nodes().end()) {
        crashed = it->second.crashed;
      } else {
        result.status =
            Status::NotFound(Sprintf("node %u does not exist", op.node));
        return result;
      }
      if (crashed) {
        result.status = Status::FailedPrecondition(
            Sprintf("node %u is already down", op.node));
        return result;
      }
      uint64_t delay = std::clamp(op.size, kEnvMinCrashDelaySeconds,
                                  kEnvMaxCrashDelaySeconds);
      dfs.CrashNodeForEnvFault(op.node);
      ScheduledRestart restart{dfs.Now() + Seconds(static_cast<int64_t>(delay)),
                               op.node};
      auto pos = std::upper_bound(
          restarts_.begin(), restarts_.end(), restart,
          [](const ScheduledRestart& a, const ScheduledRestart& b) { return a.at < b.at; });
      restarts_.insert(pos, restart);
      break;
    }
    case OpKind::kEnvClearFaults:
      // Disarms rates and degraded disks. Scheduled restarts stay: a node
      // that is down must still come back, or recovery would never complete.
      msg_loss_permille_ = 0;
      msg_reorder_permille_ = 0;
      msg_duplicate_permille_ = 0;
      msg_corrupt_permille_ = 0;
      slow_disks_.clear();
      break;
    default:
      result.status =
          Status::InvalidArgument("not an environment-fault operator");
      return result;
  }
  result.status = Status::Ok();
  return result;
}

EnvFaultRuntime::MessageVerdict EnvFaultInjector::OnMigrationMessage(
    DfsCluster& dfs, const ChunkMove& move) {
  (void)dfs;
  (void)move;
  // No draw when nothing is armed: attaching an idle injector must leave the
  // injector's RNG stream untouched so disarming via kEnvClearFaults really
  // freezes the schedule.
  if (!AnyMessageFaultArmed()) {
    return MessageVerdict::kDeliver;
  }
  // One independent draw per armed fault class, in fixed severity order
  // (loss trumps reorder trumps duplicate trumps corrupt).
  if (msg_loss_permille_ != 0 && rng_.NextBelow(1000) < msg_loss_permille_) {
    return MessageVerdict::kDrop;
  }
  if (msg_reorder_permille_ != 0 &&
      rng_.NextBelow(1000) < msg_reorder_permille_) {
    return MessageVerdict::kReorder;
  }
  if (msg_duplicate_permille_ != 0 &&
      rng_.NextBelow(1000) < msg_duplicate_permille_) {
    return MessageVerdict::kDuplicate;
  }
  if (msg_corrupt_permille_ != 0 &&
      rng_.NextBelow(1000) < msg_corrupt_permille_) {
    return MessageVerdict::kCorrupt;
  }
  return MessageVerdict::kDeliver;
}

bool EnvFaultInjector::DropHeartbeat(DfsCluster& dfs, NodeId node) {
  (void)dfs;
  (void)node;
  // Metadata replication heartbeats ride the same lossy transport as
  // migration messages; the other fault classes leave them intact (a
  // reordered or duplicated heartbeat is harmless, and heartbeats carry
  // their epoch so corruption is detected and resent within the op).
  return msg_loss_permille_ != 0 && rng_.NextBelow(1000) < msg_loss_permille_;
}

double EnvFaultInjector::DiskSlowdown(const DfsCluster& dfs,
                                      NodeId node) const {
  auto it = slow_disks_.find(node);
  if (it == slow_disks_.end() || dfs.Now() >= it->second.until) {
    return 1.0;
  }
  return static_cast<double>(it->second.percent) / 100.0;
}

void EnvFaultInjector::OnClockAdvanced(DfsCluster& dfs, SimTime now) {
  while (!restarts_.empty() && restarts_.front().at <= now) {
    NodeId node = restarts_.front().node;
    restarts_.erase(restarts_.begin());
    dfs.RestartNode(node);
  }
  if (!slow_disks_.empty()) {
    std::erase_if(slow_disks_,
                  [now](const auto& entry) { return entry.second.until <= now; });
  }
}

bool EnvFaultInjector::RecoveryPending(const DfsCluster& dfs) const {
  (void)dfs;
  return !restarts_.empty();
}

void EnvFaultInjector::OnClusterReset(DfsCluster& dfs) {
  (void)dfs;
  // The reset rebuilt the topology from scratch — every node is alive again,
  // so pending restarts refer to nodes that are no longer down.
  msg_loss_permille_ = 0;
  msg_reorder_permille_ = 0;
  msg_duplicate_permille_ = 0;
  msg_corrupt_permille_ = 0;
  slow_disks_.clear();
  restarts_.clear();
}

void EnvFaultInjector::SaveState(SnapshotWriter& writer) const {
  writer.U64(msg_loss_permille_);
  writer.U64(msg_reorder_permille_);
  writer.U64(msg_duplicate_permille_);
  writer.U64(msg_corrupt_permille_);
  writer.U64(slow_disks_.size());
  for (const auto& [node, slot] : slow_disks_) {
    writer.U32(node);
    writer.U64(slot.percent);
    writer.I64(slot.until);
  }
  writer.U64(restarts_.size());
  for (const ScheduledRestart& restart : restarts_) {
    writer.I64(restart.at);
    writer.U32(restart.node);
  }
  rng_.SaveState(writer);
}

Status EnvFaultInjector::RestoreState(SnapshotReader& reader) {
  auto rate = [&reader](const char* what) -> uint64_t {
    uint64_t value = reader.U64();
    if (reader.ok() && value != 0 &&
        (value < kEnvMinRatePermille || value > kEnvMaxRatePermille)) {
      reader.Fail(Sprintf("malformed env fault record: %s rate %llu out of "
                          "range [%llu, %llu]",
                          what, static_cast<unsigned long long>(value),
                          static_cast<unsigned long long>(kEnvMinRatePermille),
                          static_cast<unsigned long long>(kEnvMaxRatePermille)));
    }
    return value;
  };
  msg_loss_permille_ = rate("message-loss");
  msg_reorder_permille_ = rate("message-reorder");
  msg_duplicate_permille_ = rate("message-duplicate");
  msg_corrupt_permille_ = rate("message-corrupt");
  if (!reader.ok()) return reader.status();

  slow_disks_.clear();
  uint64_t slow_count = reader.Count(4 + 8 + 8);
  for (uint64_t i = 0; i < slow_count && reader.ok(); ++i) {
    NodeId node = reader.U32();
    SlowDisk slot;
    slot.percent = reader.U64();
    slot.until = reader.I64();
    if (!reader.ok()) break;
    if (slot.percent < kEnvMinSlowFactorPercent ||
        slot.percent > kEnvMaxSlowFactorPercent) {
      reader.Fail(Sprintf("malformed env fault record: slow-disk factor %llu "
                          "out of range",
                          static_cast<unsigned long long>(slot.percent)));
      break;
    }
    if (slot.until < 0) {
      reader.Fail("malformed env fault record: negative slow-disk expiry");
      break;
    }
    if (!slow_disks_.emplace(node, slot).second) {
      reader.Fail(Sprintf("malformed env fault record: duplicate slow-disk "
                          "entry for node %u",
                          node));
      break;
    }
  }
  if (!reader.ok()) return reader.status();

  restarts_.clear();
  // Record order is firing order, so simultaneous restarts keep theirs.
  uint64_t restart_count = reader.Count(8 + 4);
  for (uint64_t i = 0; i < restart_count && reader.ok(); ++i) {
    ScheduledRestart restart;
    restart.at = reader.I64();
    restart.node = reader.U32();
    if (!reader.ok()) break;
    if (restart.at < 0) {
      reader.Fail("malformed env fault record: negative restart time");
      break;
    }
    if (!restarts_.empty() && restart.at < restarts_.back().at) {
      reader.Fail("malformed env fault record: restart schedule not sorted");
      break;
    }
    restarts_.push_back(restart);
  }
  if (!reader.ok()) return reader.status();
  return rng_.RestoreState(reader);
}

}  // namespace themis
