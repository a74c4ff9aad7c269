// The DFS cluster simulator.
//
// `DfsInterface` is the black-box surface Themis (and every baseline) tests
// against: execute an operation, sample per-node load, trigger / query
// rebalance — exactly the two integration points (`operation.send()` and
// `LoadMonitor()`) plus the rebalance APIs that the paper's Interaction
// Adaptor uses (§5). `DfsCluster` is the shared simulator engine; the four
// flavors in src/dfs/flavors/ plug in their placement policy, balancer
// discipline and native balance threshold.

#ifndef SRC_DFS_CLUSTER_H_
#define SRC_DFS_CLUSTER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/coverage/coverage.h"
#include "src/coverage/model_coverage.h"
#include "src/dfs/brick.h"
#include "src/dfs/load_index.h"
#include "src/dfs/load_sample.h"
#include "src/dfs/migration.h"
#include "src/dfs/namespace_tree.h"
#include "src/dfs/node.h"
#include "src/dfs/operation.h"
#include "src/dfs/types.h"
#include "src/telemetry/event_log.h"

namespace themis {

class DfsCluster;

// Fault-injection hooks. The cluster calls these at well-defined points; the
// default implementation is a no-op (healthy system). src/faults implements
// them to plant the paper's 10 new bugs and the 53-bug historical corpus.
class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  // After an operation has been executed (successfully or not).
  virtual void OnOperationExecuted(DfsCluster& dfs, const Operation& op,
                                   const OpResult& result) {
    (void)dfs;
    (void)op;
    (void)result;
  }

  // A rebalance plan was built and is about to be enqueued. Hooks may mutate
  // it (drop moves, redirect targets) — load-calculation bugs live here.
  virtual void OnRebalancePlanned(DfsCluster& dfs, MigrationPlan& plan) {
    (void)dfs;
    (void)plan;
  }

  // One chunk move is about to execute. Migration bugs live here.
  enum class MigrateVerdict {
    kProceed,   // execute normally
    kSkip,      // silently skip the move (data stays put -> hotspot)
    kLoseData,  // remove from source without writing destination
  };
  virtual MigrateVerdict OnMigrateChunk(DfsCluster& dfs, const ChunkMove& move) {
    (void)dfs;
    (void)move;
    return MigrateVerdict::kProceed;
  }

  // A rebalance round finished draining.
  virtual void OnRebalanceDone(DfsCluster& dfs) { (void)dfs; }

  // Should the balancer trigger be suppressed right now? (hang faults)
  virtual bool SuppressRebalance(const DfsCluster& dfs) {
    (void)dfs;
    return false;
  }

  // Membership / volume topology changed.
  virtual void OnTopologyChanged(DfsCluster& dfs) { (void)dfs; }

  // Should this node's metadata anti-entropy be stalled? (metadata-desync
  // faults, the §7 extension)
  virtual bool SuppressMetadataSync(const DfsCluster& dfs, NodeId node) {
    (void)dfs;
    (void)node;
    return false;
  }

  // The cluster was reset to its initial state (after a confirmed failure).
  virtual void OnClusterReset(DfsCluster& dfs) { (void)dfs; }
};

// Environment-fault runtime (DESIGN.md §14). FaultHooks plant *bugs* —
// latent defects in balancer logic; this models the *environment* turning
// hostile: lossy/reordering networks, slow disks, node crashes followed by
// scheduled restarts. The cluster consults it at its message, disk and clock
// touch points. A null runtime (the default, and every fault-free campaign)
// leaves every path byte-identical, so wiring the hooks in cannot perturb
// fault-free digests.
class EnvFaultRuntime {
 public:
  virtual ~EnvFaultRuntime() = default;

  // Executes one env_fault grammar operation (Execute dispatches kEnv* ops
  // here instead of routing them to a metadata node — they are environment
  // controls, not client requests).
  virtual OpResult ExecuteEnvOp(DfsCluster& dfs, const Operation& op) = 0;

  // Verdict for one queued migration message (a chunk-move RPC) as it
  // reaches the head of the transfer queue.
  enum class MessageVerdict : uint8_t {
    kDeliver = 0,  // normal delivery
    kDrop,         // message lost: the move silently disappears
    kReorder,      // delivery deferred: the move rotates to the queue tail
    kDuplicate,    // delivered now, and a stale copy arrives again later
    kCorrupt,      // payload corrupt: bandwidth burned, nothing written
  };
  virtual MessageVerdict OnMigrationMessage(DfsCluster& dfs, const ChunkMove& move) {
    (void)dfs;
    (void)move;
    return MessageVerdict::kDeliver;
  }

  // Should this round's anti-entropy heartbeat toward `node` be lost?
  virtual bool DropHeartbeat(DfsCluster& dfs, NodeId node) {
    (void)dfs;
    (void)node;
    return false;
  }

  // Migration-throughput divisor for `node`'s disks (1.0 = healthy; a slow
  // disk makes every byte moved through the node cost `factor` budget bytes).
  virtual double DiskSlowdown(const DfsCluster& dfs, NodeId node) const {
    (void)dfs;
    (void)node;
    return 1.0;
  }

  // Virtual time advanced to `now`: fire scheduled events (crash restarts,
  // slow-disk window expiries).
  virtual void OnClockAdvanced(DfsCluster& dfs, SimTime now) {
    (void)dfs;
    (void)now;
  }

  // True while a scheduled crash-restart has not fired yet — the executor's
  // crash-recovery double-check waits this out before judging LBS.
  virtual bool RecoveryPending(const DfsCluster& dfs) const {
    (void)dfs;
    return false;
  }

  // The cluster was reset to its initial state: drop all injected fault
  // state (message rates, slow disks, pending restarts).
  virtual void OnClusterReset(DfsCluster& dfs) { (void)dfs; }
};

// What the testing tools see. Kept intentionally narrow: real deployments
// expose exactly this via FUSE + admin CLIs.
class DfsInterface {
 public:
  virtual ~DfsInterface() = default;

  virtual OpResult Execute(const Operation& op) = 0;

  // ---- load observation ----
  // One scan of the nodes' cumulative load counters. The states monitor
  // takes one per executed test case and differences it against the
  // previous one (LoadVarianceModel); failure reports and ground-truth
  // checks read it for per-node detail. Consumers ignore offline nodes that
  // have not crashed, so an adapter may leave decommissioned nodes out.
  virtual void SampleLoadInto(std::vector<LoadSample>& out) const = 0;
  // Copying convenience wrapper over SampleLoadInto for cold callers
  // (reports, tests); deliberately non-virtual.
  std::vector<LoadSample> SampleLoad() const {
    std::vector<LoadSample> out;
    SampleLoadInto(out);
    return out;
  }
  // No-op defaults that nothing in src/ calls. They stay only because the
  // benchmark decorator in campaign_bench/traced_campaign.cc overrides both.
  virtual bool SnapshotLoadStats(LoadStatsSnapshot& out) const {
    (void)out;
    return false;
  }
  virtual void AdvanceLoadWindow() {}

  // Admin APIs (paper §4.3: most DFSes provide rebalance / rebalance-state).
  virtual Status TriggerRebalance() = 0;
  virtual bool RebalanceDone() const = 0;

  // Admin views used to instantiate operands (gluster volume info, hdfs
  // dfsadmin -report, ...).
  virtual std::vector<NodeId> ListMetaNodes() const = 0;
  virtual std::vector<NodeId> ListStorageNodes() const = 0;
  virtual std::vector<BrickId> ListBricks() const = 0;
  virtual uint64_t FreeSpaceBytes() const = 0;
  // Sum of serving brick capacities. 0 means "unknown" (adapters that do not
  // track capacity); consumers treat unknown as "do not reason about space".
  virtual uint64_t TotalCapacityBytes() const { return 0; }

  // Monotonic counter that advances whenever the admin list views above may
  // have changed membership. Consumers (InputModel::SyncFromDfs) skip the
  // list copies while the epoch is unchanged. kMembershipEpochUnknown means
  // the implementation does not track membership; re-pull every time.
  static constexpr uint64_t kMembershipEpochUnknown = ~0ull;
  virtual uint64_t MembershipEpoch() const { return kMembershipEpochUnknown; }

  virtual SimTime Now() const = 0;
  // Lets a tester wait (background migration keeps progressing).
  virtual void AdvanceTime(SimDuration delta) = 0;

  // Environment-fault recovery: true while a scheduled crash-restart (or the
  // balancer resume it gates) has not completed. Fault-free adapters keep
  // the default — the crash-recovery double-check then never waits.
  virtual bool EnvRecoveryPending() const { return false; }

  virtual void ResetToInitial() = 0;
  virtual Flavor flavor() const = 0;
  virtual std::string_view name() const = 0;

  // Diagnostic snapshot of the storage topology (for failure reports).
  virtual std::string DescribeState() const { return {}; }
};

// Stripe unit: every chunk stays within it, so chunks stay migratable.
inline constexpr uint64_t kChunkSize = 2 * kGiB;

struct ClusterConfig {
  int initial_storage_nodes = 8;
  int initial_meta_nodes = 2;
  uint64_t brick_capacity = 480 * kGiB;
  // EFBIG-style admission cap on a single file (0 = unlimited). Production
  // flavors set this: without it, a boundary "write the whole free space"
  // scenario on a petabyte fleet turns one create into hundreds of thousands
  // of chunk placements — per-op cost would scale with fleet capacity.
  uint64_t max_file_size = 0;
  double native_threshold = 0.10;      // balance tolerance (max/mean - 1)
  SimDuration balancer_period = Minutes(5);
  int min_storage_nodes = 4;
  int max_storage_nodes = 16;
  uint64_t rng_seed = 1;
  // ---- GeoFS geotag topology (0 everywhere else) ----
  int geo_sites = 0;           // sites in the geotag tree
  int geo_racks_per_site = 0;  // racks under each site
  int geo_group_size = 0;      // scheduling-group capacity, in nodes
};

class DfsCluster : public DfsInterface {
 public:
  DfsCluster(ClusterConfig config, Flavor flavor, std::string cluster_name);
  ~DfsCluster() override;

  DfsCluster(const DfsCluster&) = delete;
  DfsCluster& operator=(const DfsCluster&) = delete;

  // ---- DfsInterface ----
  OpResult Execute(const Operation& op) override;
  void SampleLoadInto(std::vector<LoadSample>& out) const override;
  Status TriggerRebalance() override;
  // A crashed balancer (env fault) is "not done": the round it was running
  // is suspended until its node restarts and the resume re-triggers it.
  bool RebalanceDone() const override {
    return !rebalance_active_ && move_queue_.empty() && !balancer_crashed_ &&
           !balancer_resume_pending_;
  }
  std::vector<NodeId> ListMetaNodes() const override;
  std::vector<NodeId> ListStorageNodes() const override;
  std::vector<BrickId> ListBricks() const override;
  uint64_t FreeSpaceBytes() const override { return FreeSpaceBytesExcept(kInvalidBrick); }
  uint64_t MembershipEpoch() const override { return membership_epoch_; }
  SimTime Now() const override { return clock_.now(); }
  void AdvanceTime(SimDuration delta) override;
  void ResetToInitial() override;
  Flavor flavor() const override { return flavor_; }
  std::string_view name() const override { return name_; }
  std::string DescribeState() const override;

  bool EnvRecoveryPending() const override;

  // ---- wiring ----
  void set_fault_hooks(FaultHooks* hooks) { hooks_ = hooks; }
  void set_env_faults(EnvFaultRuntime* env) { env_ = env; }
  EnvFaultRuntime* env_faults() const { return env_; }
  void set_coverage(CoverageRecorder* cov) { cov_ = cov; }
  CoverageRecorder* coverage() const { return cov_; }
  // Balancer state-machine transition recorder (DESIGN.md §16); null
  // disables emission. Recording draws no RNG: attaching it never changes
  // cluster behavior.
  void set_model_coverage(ModelCoverage* model_cov) { model_cov_ = model_cov; }
  ModelCoverage* model_coverage() const { return model_cov_; }
  // Campaign event sink for rebalance-round telemetry; null disables it.
  void set_telemetry(EventLog* telemetry) { telemetry_ = telemetry; }

  // ---- introspection (flavors, faults, tests, ground truth) ----
  const ClusterConfig& config() const { return config_; }
  const NamespaceTree& tree() const { return tree_; }
  const std::map<BrickId, Brick>& bricks() const { return bricks_; }
  const std::map<NodeId, StorageNode>& storage_nodes() const { return storage_nodes_; }
  const std::map<NodeId, MetaNode>& meta_nodes() const { return meta_nodes_; }
  const std::map<FileId, FileLayout>& file_layouts() const { return layouts_; }

  // O(1): ids are small and monotonic, so a flat pointer vector shadows the
  // owning maps (map nodes have stable addresses; erased slots hold null).
  // These sit on the placement/migration hot path at millions of calls per
  // campaign — keep them inline.
  Brick* FindBrick(BrickId id) {
    return id < brick_index_.size() ? brick_index_[id] : nullptr;
  }
  const Brick* FindBrick(BrickId id) const {
    return id < brick_index_.size() ? brick_index_[id] : nullptr;
  }
  StorageNode* FindStorageNode(NodeId id) {
    return id < storage_node_index_.size() ? storage_node_index_[id] : nullptr;
  }
  const StorageNode* FindStorageNode(NodeId id) const {
    return id < storage_node_index_.size() ? storage_node_index_[id] : nullptr;
  }

  // Serving (online, not crashed, not draining) bricks and storage nodes,
  // in id order. The returned reference points into the load index and stays
  // valid until the next topology mutation (brick/node add/remove/online/
  // offline); copy it before mutating topology mid-iteration.
  const std::vector<BrickId>& ServingBricks() const { return load_.serving_bricks(); }
  const std::vector<NodeId>& ServingStorageNodeIds() const { return load_.serving_nodes(); }

  // The hottest serving brick (max UsedFraction, smallest brick id on ties)
  // — the fault injector's hotspot probe. kInvalidBrick when nothing serves.
  BrickId HottestServingBrick() const { return load_.HottestServingBrick(); }

  uint64_t TotalCapacityBytes() const override { return load_.stats().fleet_cap; }
  // Free bytes on the serving bricks other than `brick` (one scan).
  uint64_t FreeSpaceBytesExcept(BrickId brick) const;
  // Used bytes over every brick, draining and offline ones included (one
  // scan; tests only).
  uint64_t TotalUsedBytes() const;
  // Used bytes summed over serving bricks only (the balancers' view of fleet
  // utilization).
  uint64_t TotalServingUsedBytes() const { return load_.stats().fleet_used; }
  // Utilization *spread* in fraction points over the serving storage nodes:
  // the hottest node vs the capacity-weighted fleet utilization — the
  // quantity real balancers threshold on (the HDFS Balancer's "utilization
  // differs from the cluster average utilization by more than N%"). An
  // unweighted node mean would diverge from what the balancer can guarantee
  // on heterogeneous-capacity clusters.
  double StorageImbalance() const { return load_.stats().spread; }
  // The state behind the reads above (DESIGN.md §10), for AuditCluster.
  const LoadIndex& load_index() const { return load_; }

  // Generic capacity-proportional leveling plan: moves chunks from bricks
  // above the fleet utilization (by more than `tolerance`) to bricks below
  // it. Flavors build their plans on top of / instead of this.
  // `extra_inflow` carries bytes the flavor's own plan section already
  // directed at each brick, so the combined plan respects one budget.
  // Chunks for which ChunkPinnedToBrick() holds are never moved — they sit
  // where the flavor's placement function says they belong, and moving them
  // would only make the next rebalance move them back.
  MigrationPlan PlanLevelingByUsage(
      double tolerance, const std::map<BrickId, uint64_t>* extra_inflow = nullptr) const;

  int completed_rebalance_rounds() const { return completed_rebalance_rounds_; }
  uint64_t rebalance_triggers() const { return rebalance_triggers_; }
  // Authoritative namespace mutation count; metadata replicas (MetaNode::
  // synced_epoch) trail it by at most the anti-entropy lag when healthy.
  uint64_t namespace_epoch() const { return namespace_epoch_; }
  // Moves on every change to a brick's bytes, capacity or online state, to
  // node serving membership, and to the replica index. Anything computed
  // from those alone is still valid while it reads the same value.
  uint64_t load_epoch() const { return load_.epoch(); }
  uint64_t total_ops_executed() const { return total_ops_executed_; }
  uint64_t lost_bytes() const { return lost_bytes_; }

  // Replica index: chunks with a replica on `brick`, sorted. The reference
  // stays valid until a replica is added to or removed from `brick`.
  const std::vector<std::pair<FileId, uint32_t>>& ChunksOnBrickRef(BrickId brick) const;

  // ---- load accounting and fault-effect mutators ----
  // Adds `delta` to a storage or meta node's cumulative load counters (the
  // op path's IO and CPU charges, and the injector's CPU/network skew).
  // Unknown ids are ignored.
  void AddLoad(NodeId node, const NodeLoadCounters& delta);
  void CrashNode(NodeId node);
  // Moves `bytes` of stored data from `from` to `to` without a migration
  // round — models mis-placed / mis-migrated data accumulating on a hotspot.
  uint64_t SkewBytes(BrickId from, BrickId to, uint64_t bytes);
  // Deletes one replica without copying it anywhere (destructive unlink).
  void DestroyChunkReplica(FileId file, uint32_t chunk_index, BrickId brick);

  // ---- environment-fault mutators (used only by EnvFaultRuntime) ----
  // CrashNode plus balancer-halt semantics: an env crash of a metadata node
  // kills the balancer process mid-round — the round's queued rebalance
  // moves die with it, and the round resumes (from the flavor's persisted
  // state) only after RestartNode revives the node.
  void CrashNodeForEnvFault(NodeId node);
  // Reverses a crash: the node rejoins the serving set; a crashed balancer
  // restarts, reloads its persisted flavor state and re-triggers the
  // interrupted round.
  void RestartNode(NodeId node);
  bool balancer_crashed() const { return balancer_crashed_; }
  bool balancer_resume_pending() const { return balancer_resume_pending_; }
  // Balancer crashes since construction (a reset keeps counting).
  uint32_t balancer_crashes() const { return balancer_crashes_; }

  // Virtual-time clock (shared with the campaign).
  VirtualClock& clock() { return clock_; }
  Rng& rng() { return rng_; }

  // ---- checkpointing (DESIGN.md §11) ----
  // Serializes the full mutable simulator state: clock, RNG, namespace,
  // topology maps, layouts, migration queue, balancer/rebalance counters,
  // the flavor's own state (via SaveFlavorState) and, last, the balancer
  // crash census. Derived indexes (replica index, load index, class-window
  // counters) are rebuilt on restore, never serialized. Restore refuses ids
  // the id counters could not have issued and runs AuditCluster before the
  // flavor state; it must be called on a freshly constructed cluster with
  // the same ClusterConfig and flavor.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 protected:
  // Flavor extension of SaveState/RestoreState: persistent flavor state that
  // cannot be recomputed from topology (Ceph upmaps, Leo ring weights,
  // Gluster linkfile census). Purely derived flavor state (HDFS cluster map,
  // Gluster DHT layout, CRUSH weights) is recomputed in RestoreFlavorState
  // instead.
  virtual void SaveFlavorState(SnapshotWriter& writer) const { (void)writer; }
  virtual Status RestoreFlavorState(SnapshotReader& reader) {
    (void)reader;
    return Status::Ok();
  }
  // ---- flavor extension points ----

  // Records a balancer state-machine transition (no-op without a recorder).
  // Flavors emit their planning phases from BuildRebalancePlan; the generic
  // lifecycle (move drain, settle, idle, crash, restart) is emitted by the
  // shared rebalance/crash paths in cluster.cc.
  void EmitBalancerState(BalancerState to) {
    if (model_cov_ != nullptr) {
      model_cov_->Transition(to);
    }
  }

  // Chooses replica bricks for one chunk of `path`. Must return serving
  // bricks with space, or empty to signal out-of-space.
  virtual ReplicaSet PlaceChunk(const std::string& path, uint32_t chunk_index,
                                uint64_t bytes) = 0;

  // Builds a migration plan that would bring the cluster back inside the
  // native threshold. Called by TriggerRebalance / the periodic balancer.
  virtual MigrationPlan BuildRebalancePlan() = 0;

  // Topology (nodes or bricks) changed: recompute layouts / rings / weights.
  virtual void OnTopologyChangedInternal() {}

  // A storage node was administratively decommissioned (remove_node op, as
  // opposed to a crash — crashed nodes may restart and keep their identity).
  // Fires before the topology-changed notification, with the node already
  // offline. Flavors that key state by node id can release it here in O(1)
  // instead of re-scanning the fleet on every topology change.
  virtual void OnStorageNodeDecommissioned(NodeId id) { (void)id; }
  // A storage node was admitted: called exactly once per node, from
  // AddStorageNodeInternal, before its brick exists. GeoFS places the node
  // in its geotag tree and scheduling groups here.
  virtual void OnStorageNodeAdmitted(NodeId id) { (void)id; }

  // The topology is about to be rebuilt from scratch (construction or
  // ResetToInitial): flavors drop state keyed by node ids here, before the
  // initial nodes are re-added (GeoFS clears its geotag tree).
  virtual void OnTopologyCleared() {}

  // Flavor hook after a file rename (GlusterFS spawns linkfiles here).
  virtual void OnFileRenamed(FileId file, const std::string& from, const std::string& to) {
    (void)file;
    (void)from;
    (void)to;
  }

  // Flavor hook after ANY successful rename, including directory moves —
  // those re-path every descendant file without an OnFileRenamed call, so
  // flavors caching anything keyed by path must invalidate here.
  virtual void OnNamespaceRenamed() {}

  // Flavor hook when a rebalance round drains.
  virtual void OnRebalanceRoundDone() {}

  // The balancer restarted after a crash (env crash of a metadata node);
  // flavors reload / revalidate their persisted state here, before the
  // interrupted round is re-triggered.
  virtual void OnBalancerRestarted() {}

  // True when this replica is exactly where the flavor's deterministic
  // placement (DHT range, hash ring) says it belongs; the generic leveler
  // then leaves it alone.
  virtual bool ChunkPinnedToBrick(FileId file, uint32_t chunk_index, BrickId brick) const {
    (void)file;
    (void)chunk_index;
    (void)brick;
    return false;
  }

  // Brick capacity for a storage node being added. The default is the
  // homogeneous configured capacity; GeoFS overrides it to model a
  // heterogeneous-capacity fleet. Deterministic in the node id.
  virtual uint64_t BrickCapacityFor(NodeId id) const {
    (void)id;
    return config_.brick_capacity;
  }

  // ---- services available to flavors ----
  // Builds the initial topology; flavors call this at the end of their
  // constructor (virtual dispatch to OnTopologyChangedInternal is live by
  // then) and it backs ResetToInitial().
  void BuildInitialTopology();
  BrickId NewBrickOnNode(NodeId node, uint64_t capacity);
  NodeId AddStorageNodeInternal(uint64_t brick_capacity);
  // Periodic balance check, run after each clock advance.
  void MaybeTriggerBalancer();
  // Runs OnTopologyChangedInternal + coverage + fault hooks.
  void NotifyTopologyChanged();

  // ---- load accounting (DESIGN.md §10) ----
  // Every byte-level mutation of a brick goes through these two so the load
  // index stays exact without per-op rescans. Release clamps at zero,
  // matching the `used -= min(used, bytes)` idiom the scattered call sites
  // used.
  void AccreteBrickBytes(Brick* brick, uint64_t bytes) {
    if (brick != nullptr && bytes != 0) {
      uint64_t old_used = brick->used_bytes;
      brick->used_bytes += bytes;
      load_.OnBytesChanged(*brick, old_used);
    }
  }
  void ReleaseBrickBytes(Brick* brick, uint64_t bytes) {
    if (brick != nullptr && bytes != 0 && brick->used_bytes != 0) {
      uint64_t old_used = brick->used_bytes;
      brick->used_bytes -= std::min(old_used, bytes);
      load_.OnBytesChanged(*brick, old_used);
    }
  }

  ClusterConfig config_;

 private:
  // Operation handlers.
  OpResult DoCreate(const Operation& op);
  OpResult DoDelete(const Operation& op);
  OpResult DoAppend(const Operation& op);
  OpResult DoOverwrite(const Operation& op, bool truncate_first);
  OpResult DoOpen(const Operation& op);
  OpResult DoMkdir(const Operation& op);
  OpResult DoRmdir(const Operation& op);
  OpResult DoRename(const Operation& op);
  OpResult DoAddMetaNode(const Operation& op);
  OpResult DoRemoveMetaNode(const Operation& op);
  OpResult DoAddStorageNode(const Operation& op);
  OpResult DoRemoveStorageNode(const Operation& op);
  OpResult DoAddVolume(const Operation& op);
  OpResult DoRemoveVolume(const Operation& op);
  OpResult DoExpandVolume(const Operation& op);
  OpResult DoReduceVolume(const Operation& op);

  NodeId AddMetaNodeInternal();
  // EFBIG: Ok, or InvalidArgument when a file would grow past max_file_size.
  Status AdmitFileSize(uint64_t new_size);

  // Places all chunks for `size` bytes of `path`; rolls back on failure.
  Result<FileLayout> PlaceFile(const std::string& path, uint64_t size);
  // Frees brick bytes and replica-index entries held by `layout`.
  void ReleaseLayout(FileId file, const FileLayout& layout);
  void IndexLayout(FileId file, const FileLayout& layout);
  void ChargeLayoutIo(const FileLayout& layout, bool is_write);

  // Routes the request to a serving metadata node; returns kInvalidNode if
  // none are alive.
  NodeId RouteToMetaNode(const Operation& op);

  // Queues a `reason` move off `brick` for each of its chunks, in replica-
  // index order, until `byte_limit` bytes are queued (recovery off a removed
  // node, evacuation of a removed brick, overflow off a shrunken one). Runs
  // inside a BeginRecoveryPass. False when some chunk had no target: it
  // stays where it is (under-replicated until space appears).
  bool QueueMovesOff(BrickId brick, MoveReason reason, uint64_t byte_limit);

  // Lets `dt` of virtual time pass: the clock, the env runtime's scheduled
  // events, background migration and the periodic balancer check.
  void RunFor(SimDuration dt);
  // Background migration: processes `dt` worth of queued chunk moves.
  void AdvanceBackground(SimDuration dt);
  void ExecuteMove(const ChunkMove& move);
  void FinishRebalanceIfDrained();

  void AddReplicaIndex(BrickId brick, FileId file, uint32_t chunk);
  void RemoveReplicaIndex(BrickId brick, FileId file, uint32_t chunk);

  // Candidate snapshot for recovery/evacuation target picking: the serving
  // bricks sorted by (utilization, serving order), built once per scheduling
  // pass. Nothing in a pass changes brick bytes or membership, so one
  // snapshot serves every chunk of the pass.
  struct RecoveryCandidate {
    double used_fraction;
    uint32_t order;  // index in ServingBricks() — the first-wins tie-break
    BrickId id;
  };
  void BeginRecoveryPass();
  // Picks a serving replacement brick for a chunk replica (placement-neutral
  // recovery used by evacuation / re-replication). Selects exactly the brick
  // the serving-order scan over UsedFraction() + same-node penalty would.
  BrickId PickRecoveryTarget(const ChunkPlacement& chunk, uint64_t bytes) const;

  // Returns op.path normalized, reusing op.path itself when it is already in
  // normalized form (the common case for generated operands) and a scratch
  // buffer otherwise — the flavor placement hashes consume these bytes, so
  // they must match NormalizePath(op.path) exactly.
  const std::string& NormalizedOpPath(const Operation& op);

  void RecordOpCoverage(const Operation& op, const OpResult& result);
  // 1..10: how many branches a state tuple unlocks at the current imbalance.
  int ImbalanceMultiplicity() const;

  // Refuses restored node and brick ids the counters could not have issued
  // (DESIGN.md §11); runs before any id-indexed vector is sized.
  Status CheckRestoredIds() const;

  // ---- structural load-index updates ----
  // A storage node starts or stops serving (crash, restart, removal): its
  // online bricks join or leave the serving list.
  void SetStorageNodeServing(const StorageNode& node, bool serving);
  // Takes an online brick offline (draining: no new placements) and queues
  // it for the drained-brick GC.
  void TakeBrickOffline(Brick& brick);
  void SetBrickCapacity(Brick& brick, uint64_t capacity);
  // Anti-entropy: serving metadata replicas catch up to the namespace epoch
  // (unless a fault stalls them).
  void SyncMetadataReplicas();
  static SimDuration TransferCost(uint64_t bytes);
  static SimDuration ParallelTransferCost(const FileLayout& layout);

  Flavor flavor_;
  std::string name_;
  VirtualClock clock_;
  Rng rng_;

  // Flat id -> map-node side indexes behind the inline Find* accessors.
  void IndexBrickPtr(BrickId id, Brick* brick) {
    if (brick_index_.size() <= id) {
      brick_index_.resize(static_cast<size_t>(id) + 1, nullptr);
      brick_chunks_.resize(brick_index_.size());
    }
    brick_index_[id] = brick;
  }
  void IndexStorageNodePtr(NodeId id, StorageNode* node) {
    if (storage_node_index_.size() <= id) {
      storage_node_index_.resize(static_cast<size_t>(id) + 1, nullptr);
    }
    storage_node_index_[id] = node;
  }

  NamespaceTree tree_;
  std::map<NodeId, StorageNode> storage_nodes_;
  std::map<NodeId, MetaNode> meta_nodes_;
  std::map<BrickId, Brick> bricks_;
  std::vector<Brick*> brick_index_;              // shadows bricks_
  std::vector<StorageNode*> storage_node_index_;  // shadows storage_nodes_
  std::map<FileId, FileLayout> layouts_;
  // Reverse index: brick -> chunks with a replica there, dense by BrickId
  // and sized with brick_index_, so adding a replica never grows the outer
  // vector and a reference to one brick's entry survives inserts into
  // another's. Sorted by (file, chunk): flat vectors iterate in std::set
  // order but keep the hot SkewBytes/QueueMovesOff scans contiguous in memory.
  std::vector<std::vector<std::pair<FileId, uint32_t>>> brick_chunks_;
  // Classes of the last 8 operations (coverage feature).
  std::deque<uint8_t> recent_classes_;

  NodeId next_node_id_ = 1;
  BrickId next_brick_id_ = 1;

  // Background migration queue (rebalance + recovery + evacuation).
  std::deque<ChunkMove> move_queue_;
  uint64_t current_move_done_bytes_ = 0;
  bool rebalance_active_ = false;
  uint64_t current_round_moves_ = 0;  // moves enqueued for the active round
  int completed_rebalance_rounds_ = 0;
  uint64_t rebalance_triggers_ = 0;
  SimTime last_balancer_check_ = 0;

  uint64_t total_ops_executed_ = 0;
  uint64_t lost_bytes_ = 0;
  uint64_t namespace_epoch_ = 0;

  FaultHooks* hooks_ = nullptr;
  EnvFaultRuntime* env_ = nullptr;
  CoverageRecorder* cov_ = nullptr;
  ModelCoverage* model_cov_ = nullptr;
  EventLog* telemetry_ = nullptr;

  // Balancer crash/resume state (env faults; DESIGN.md §14). Only
  // CrashNodeForEnvFault sets it: in every fault-free campaign both flags
  // stay false and the crash census stays 0. A reset keeps the census.
  bool balancer_crashed_ = false;
  bool balancer_resume_pending_ = false;
  uint32_t balancer_crashes_ = 0;

  // Serving lists, per-node online sums, brick fractions and the load epoch
  // (DESIGN.md §10). It moves on replica-index changes too (Touch()).
  LoadIndex load_;

  // Serving metadata nodes, maintained at the (rare) membership changes so
  // per-op request routing / anti-entropy need not scan the ever-growing
  // meta_nodes_ map (removed nodes stay in it as tombstones).
  std::vector<NodeId> serving_meta_nodes_;
  // Crashed nodes, storage and meta, sorted by id. With the serving lists
  // they are the nodes SampleLoadInto reports, so the monitor's scan never
  // walks the tombstones of decommissioned nodes.
  std::vector<NodeId> crashed_node_ids_;
  // One node's LoadSample (storage or meta).
  LoadSample NodeLoadSample(NodeId id) const;
  // Online-flag bookkeeping so the per-op drained-brick GC can skip its
  // whole-map scan when nothing is offline (the common case).
  int offline_bricks_ = 0;
  // The offline bricks themselves, so a long-lived drain (stuck evacuation,
  // under-replicated fleet) sweeps only its own bricks each op instead of
  // the whole ever-growing brick map. Entries leave when the GC collects or
  // skips-as-stale them.
  std::vector<BrickId> offline_brick_list_;
  // Bumped whenever the admin list views (serving meta/storage/brick lists)
  // may change membership; see DfsInterface::MembershipEpoch().
  uint64_t membership_epoch_ = 1;
  // Scratch for NormalizedOpPath (valid until the next call).
  std::string norm_scratch_;
  // The current recovery pass's candidates, ascending (BeginRecoveryPass).
  std::vector<RecoveryCandidate> recovery_sorted_;
  // Scratch for PickRecoveryTarget's per-chunk replica-node set.
  mutable std::vector<NodeId> replica_nodes_scratch_;
  // Running view of the last-8-op class window (coverage feature); one slot
  // per OpClass (file, node, volume, env_fault).
  uint32_t class_counts_[4] = {0, 0, 0, 0};
  uint8_t recent_class_mask_ = 0;
};

}  // namespace themis

#endif  // SRC_DFS_CLUSTER_H_
