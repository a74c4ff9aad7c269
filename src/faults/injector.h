// The runtime fault injector.
//
// Implements the cluster's FaultHooks: it watches the execution history
// (recent operations, completed rebalance rounds, current storage variance),
// trips dormant FaultSpecs whose trigger predicate becomes satisfied, and
// then applies their effect — mutating migration plans, dropping or
// corrupting chunk moves, skewing CPU/network/storage load, hanging the
// rebalance command, or crashing a node. Effects persist until the cluster
// is reset (an imbalance failure, by definition §2.2, cannot self-recover).
//
// The injector is also the evaluation's ground truth: the campaign harness
// asks which faults were active when the detector confirmed a failure, to
// label reports as true/false positives. The *detector never reads this
// state* — it sees only load samples.

#ifndef SRC_FAULTS_INJECTOR_H_
#define SRC_FAULTS_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fixed_ring.h"
#include "src/common/rng.h"
#include "src/dfs/cluster.h"
#include "src/faults/fault_spec.h"

namespace themis {

struct FaultRuntime {
  FaultSpec spec;
  bool active = false;
  int trigger_count = 0;  // across cluster resets
  BrickId victim_brick = kInvalidBrick;
  NodeId victim_node = kInvalidNode;
  // Sustained-variance tracking (min_variance_streak): consecutive ops with
  // storage imbalance >= spec.trigger.min_variance.
  int variance_streak = 0;
  // Number of operations at which the full predicate (minus the probability
  // gate) held — calibration telemetry.
  uint64_t satisfied_evals = 0;
  // The cluster's load_epoch() after the last storage-skew pass that left it
  // unchanged, and the victim that pass ended with. The pass is a pure
  // function of both, so while they still match it would move nothing again.
  // Derived state: never serialized, cleared on reset and restore.
  static constexpr uint64_t kNoEpoch = UINT64_MAX;
  uint64_t futile_epoch = kNoEpoch;
  BrickId futile_victim = kInvalidBrick;
};

class FaultInjector : public FaultHooks {
 public:
  FaultInjector(std::vector<FaultSpec> specs, uint64_t seed);

  // ---- FaultHooks ----
  void OnOperationExecuted(DfsCluster& dfs, const Operation& op,
                           const OpResult& result) override;
  void OnRebalancePlanned(DfsCluster& dfs, MigrationPlan& plan) override;
  MigrateVerdict OnMigrateChunk(DfsCluster& dfs, const ChunkMove& move) override;
  bool SuppressRebalance(const DfsCluster& dfs) override;
  void OnClusterReset(DfsCluster& dfs) override;

  // ---- ground truth for the campaign harness ----
  const std::vector<FaultRuntime>& faults() const { return faults_; }
  std::vector<std::string> ActiveFaultIds() const;
  bool AnyActive() const;
  // Ids of faults that have triggered at least once over the whole campaign.
  std::vector<std::string> EverTriggeredIds() const;

  // Checkpointing (DESIGN.md §11): per-fault runtime (matched by spec id —
  // restore fails descriptively if the configured fault set differs), the
  // rolling execution history windows, and the injector's own RNG stream.
  // The specs themselves are configuration, rebuilt from the campaign config.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  void EvaluateTriggers(DfsCluster& dfs);
  void UpdateVarianceStreaks(const DfsCluster& dfs);
  // Operator-multiset overlap between the two most recent 8-op windows.
  double Steadiness() const;
  // Whether a file operation touched data resident on the hottest brick.
  bool TouchesHottestBrick(const DfsCluster& dfs, const Operation& op) const;
  // Records the op just pushed onto the history in the op stamps.
  void StampOp(OpKind kind, bool hot_touch);
  // Whether the last `window` ops include the one stamped `stamp`.
  bool InWindow(uint64_t stamp, size_t window) const { return stamp + window > ops_seen_; }
  bool TriggerSatisfied(const FaultRuntime& fault, const DfsCluster& dfs) const;
  void Activate(FaultRuntime& fault, DfsCluster& dfs);
  void PickVictim(FaultRuntime& fault, DfsCluster& dfs);
  void ApplyContinuousEffects(DfsCluster& dfs);
  // One step of a storage fault: moves a slice of data onto the victim.
  void SkewTowardVictim(FaultRuntime& fault, DfsCluster& dfs);
  bool EffectTargetsStorage(EffectKind effect) const;

  std::vector<FaultRuntime> faults_;
  // One executed op of the rolling execution history.
  struct HistoryEntry {
    OpKind kind = OpKind::kOpen;
    int rounds = 0;          // completed rebalance rounds when it ran
    double imbalance = 0.0;  // storage imbalance after it
  };
  static constexpr size_t kHistoryLimit = 16;
  // The last kHistoryLimit ops, oldest first.
  FixedRing<HistoryEntry, kHistoryLimit> history_;
  // Op stamps, so a trigger reads its window without scanning it: ops_seen_
  // counts the ops this injector recorded, and a kind's (a class's) stamp is
  // the count at its last op, 0 for none. A window never reaches past the
  // history, so a reset need only clear the history: older stamps and hot
  // bits fall outside every window. Derived state: restore replays the
  // restored history.
  uint64_t ops_seen_ = 0;
  std::array<uint64_t, kTotalOpKindCount> kind_stamps_{};
  std::array<uint64_t, 4> class_stamps_{};  // one per OpClass
  // Whether each recorded op touched data on the hottest brick, newest in
  // bit 0; the snapshot stores the history's bits.
  uint32_t hot_touches_ = 0;
  static_assert(kHistoryLimit < 32, "hot_touches_ must hold a whole history");
  // SkewTowardVictim's donor list, reused across passes.
  std::vector<std::pair<double, BrickId>> donors_;
  Rng rng_;
};

}  // namespace themis

#endif  // SRC_FAULTS_INJECTOR_H_
