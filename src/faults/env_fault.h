// Deterministic environment-fault injection (DESIGN.md §14).
//
// The third Themis input dimension after file/config operations: the
// *environment* turning hostile. Where FaultHooks plant bugs inside the
// balancer's own code, EnvFaultInjector perturbs the world the balancer runs
// in — the migration transport loses, reorders, duplicates and corrupts
// messages; disks degrade; nodes crash mid-rebalance and restart later. Every
// effect is driven by one owned Rng and by virtual time only, so a fault
// schedule replays bit-identically for a fixed seed and serializes into the
// campaign snapshot like every other component.
//
// The schedule itself is part of the fuzzed input: kEnv* operators in an
// opSeq call ExecuteEnvOp, which arms rates and events on this injector. A
// campaign without env faults never attaches the injector to the cluster, so
// the fault-free execution path — including its RNG draw sequence — is
// untouched (tests/golden_digest_test.cc pins this).

#ifndef SRC_FAULTS_ENV_FAULT_H_
#define SRC_FAULTS_ENV_FAULT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot_io.h"
#include "src/dfs/cluster.h"

namespace themis {

// Operand bounds of the env-fault grammar live with the grammar itself
// (src/dfs/operation.h): the generator draws inside them, the mutator's
// repair pass clamps to them, and the injector clamps replayed logs.
// How long one kEnvSlowDisk operator degrades its node.
inline constexpr SimDuration kEnvSlowDiskWindow = Hours(1);

class EnvFaultInjector : public EnvFaultRuntime {
 public:
  explicit EnvFaultInjector(uint64_t seed) : rng_(seed) {}

  // ---- EnvFaultRuntime ----
  OpResult ExecuteEnvOp(DfsCluster& dfs, const Operation& op) override;
  MessageVerdict OnMigrationMessage(DfsCluster& dfs,
                                    const ChunkMove& move) override;
  bool DropHeartbeat(DfsCluster& dfs, NodeId node) override;
  double DiskSlowdown(const DfsCluster& dfs, NodeId node) const override;
  void OnClockAdvanced(DfsCluster& dfs, SimTime now) override;
  bool RecoveryPending(const DfsCluster& dfs) const override;
  void OnClusterReset(DfsCluster& dfs) override;

  // ---- introspection (tests) ----
  uint64_t msg_loss_permille() const { return msg_loss_permille_; }
  uint64_t msg_reorder_permille() const { return msg_reorder_permille_; }
  uint64_t msg_duplicate_permille() const { return msg_duplicate_permille_; }
  uint64_t msg_corrupt_permille() const { return msg_corrupt_permille_; }
  size_t active_slow_disks() const { return slow_disks_.size(); }
  size_t pending_restarts() const { return restarts_.size(); }

  // Checkpointing (DESIGN.md §11/§14, snapshot format v4). Restore validates
  // every record against the grammar bounds above: a malformed fault record
  // (rate beyond 500/1000, factor outside [110%,1000%], negative times, unsorted
  // restart schedule) fails the snapshot instead of arming an
  // out-of-grammar schedule.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  // One degraded-disk window: `percent`/100 is the bandwidth-cost factor
  // until virtual instant `until`.
  struct SlowDisk {
    uint64_t percent = 0;
    SimTime until = 0;
  };
  // One scheduled crash-recovery: node `node` restarts at instant `at`.
  struct ScheduledRestart {
    SimTime at = 0;
    NodeId node = kInvalidNode;
  };

  bool AnyMessageFaultArmed() const {
    return msg_loss_permille_ != 0 || msg_reorder_permille_ != 0 ||
           msg_duplicate_permille_ != 0 || msg_corrupt_permille_ != 0;
  }

  // Message-fault rates in thousandths, each at most kEnvMaxRatePermille.
  uint64_t msg_loss_permille_ = 0;
  uint64_t msg_reorder_permille_ = 0;
  uint64_t msg_duplicate_permille_ = 0;
  uint64_t msg_corrupt_permille_ = 0;
  std::map<NodeId, SlowDisk> slow_disks_;
  // Sorted by time; a crash inserts its restart after every one due no later,
  // so simultaneous restarts fire in scheduling order. OnClockAdvanced pops
  // the due prefix.
  std::vector<ScheduledRestart> restarts_;
  Rng rng_;
};

}  // namespace themis

#endif  // SRC_FAULTS_ENV_FAULT_H_
