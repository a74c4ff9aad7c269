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

struct ClusterConfig {
  int initial_storage_nodes = 8;
  int initial_meta_nodes = 2;
  uint64_t brick_capacity = 480 * kGiB;
  int replication = 2;
  uint64_t chunk_size = 2 * kGiB;      // stripe unit (chunks stay migratable)
  // EFBIG-style admission cap on a single file (0 = unlimited). Production
  // flavors set this: without it, a boundary "write the whole free space"
  // scenario on a petabyte fleet turns one create into hundreds of thousands
  // of chunk placements — per-op cost would scale with fleet capacity.
  uint64_t max_file_size = 0;
  double native_threshold = 0.10;      // balance tolerance (max/mean - 1)
  bool continuous_balancing = false;   // CephFS balances in real time
  SimDuration balancer_period = Minutes(5);  // periodic flavors
  uint64_t migration_bandwidth_per_s = 1536 * kMiB;
  uint64_t client_bandwidth_per_s = 2 * kGiB;
  SimDuration base_op_latency = Millis(500);
  int min_storage_nodes = 4;
  int max_storage_nodes = 16;
  int min_meta_nodes = 1;
  int max_meta_nodes = 5;
  uint64_t rng_seed = 1;
  // ---- hierarchical load aggregates (DESIGN.md §15) ----
  // Storage nodes are partitioned into load groups; the cluster maintains
  // per-group sub-aggregates and rolls them up lazily, so per-op imbalance
  // reads touch only the groups an op charged instead of the whole fleet.
  // Flavors whose placement already has a grouping (GeoFS scheduling groups)
  // align the partition with it via PickLoadGroup; everyone else gets
  // contiguous id-range groups of this span. The partition never changes any
  // reported value (integer sums are order-independent), only its cost.
  int load_group_span = 64;
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
  uint64_t FreeSpaceBytes() const override;
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

  // Serving (online, not crashed, not draining) bricks. The returned
  // reference points at the maintained load index and stays valid until the
  // next topology mutation (brick/node add/remove/online/offline/capacity
  // change); copy it before mutating topology mid-iteration.
  const std::vector<BrickId>& ServingBricks() const;
  const std::vector<NodeId>& ServingStorageNodeIds() const;

  // The hottest serving brick (max UsedFraction, smallest brick id on ties)
  // — the fault injector's hotspot probe. Answered from per-group maxima
  // (O(dirty groups + group count)), exact against the flat ServingBricks()
  // scan. kInvalidBrick when nothing serves.
  BrickId HottestServingBrick() const;

  uint64_t TotalCapacityBytes() const override;
  uint64_t TotalUsedBytes() const;
  // Used bytes summed over serving bricks only (the balancers' view of fleet
  // utilization); TotalUsedBytes also counts draining/offline bricks.
  uint64_t TotalServingUsedBytes() const;
  // Used bytes aggregated per serving storage node.
  std::vector<double> PerNodeUsedBytes() const;
  // Disk utilization (used/capacity) per serving storage node — the metric
  // real balancers level and `df` reports.
  std::vector<double> PerNodeUsedFraction() const;
  // Utilization spread (max - mean, in fraction points) over serving
  // storage nodes — the quantity balancers threshold on.
  double StorageImbalance() const;

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
  uint64_t total_ops_executed() const { return total_ops_executed_; }
  uint64_t lost_bytes() const { return lost_bytes_; }

  // Replica index: chunks with a replica on `brick`.
  std::vector<std::pair<FileId, uint32_t>> ChunksOnBrick(BrickId brick) const;
  // Allocation-free view of the same index; the reference stays valid until
  // a replica is added to or removed from `brick`.
  const std::vector<std::pair<FileId, uint32_t>>& ChunksOnBrickRef(BrickId brick) const;

  // ---- fault-effect mutators (used only by src/faults) ----
  void InjectCpuLoad(NodeId node, double cpu_seconds);
  void InjectNetLoad(NodeId node, uint64_t reads, uint64_t writes, uint64_t requests);
  void CrashNode(NodeId node);
  // Moves `bytes` of stored data from `from` to `to` without a migration
  // round — models mis-placed / mis-migrated data accumulating on a hotspot.
  uint64_t SkewBytes(BrickId from, BrickId to, uint64_t bytes);
  // Destroys `bytes` of stored data on `brick` (data-loss effects).
  uint64_t DestroyBytes(BrickId brick, uint64_t bytes);
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

  // Virtual-time clock (shared with the campaign).
  VirtualClock& clock() { return clock_; }
  Rng& rng() { return rng_; }

  // ---- checkpointing (DESIGN.md §11) ----
  // Serializes the full mutable simulator state: clock, RNG, namespace,
  // topology maps, layouts, migration queue, balancer/rebalance counters and
  // the flavor's own state (via SaveFlavorState). Derived indexes (replica
  // index, load aggregates, class-window counters) are rebuilt on restore,
  // never serialized. Restore must be called on a freshly constructed
  // cluster with the same ClusterConfig and flavor.
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
  virtual std::vector<BrickId> PlaceChunk(const std::string& path, uint32_t chunk_index,
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

  // The balancer process crashed mid-round (env crash of a metadata node).
  // Flavors persist whatever the real balancer writes to disk before dying
  // (upmap tables, layout census, ring weights); the base cluster keeps the
  // flavor state maps intact, so the default has nothing extra to save.
  virtual void OnBalancerCrashed() {}
  // The balancer restarted after a crash; flavors reload / revalidate their
  // persisted state here, before the interrupted round is re-triggered.
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

  // Load-group assignment for a storage node being added (DESIGN.md §15).
  // The default packs monotonically assigned node ids into contiguous spans;
  // GeoFS overrides it so the load groups coincide with its scheduling
  // groups. Called exactly once per node, from AddStorageNodeInternal; the
  // assignment is real state (persisted, snapshot v5), never recomputed.
  virtual uint32_t PickLoadGroup(NodeId id) {
    int span = config_.load_group_span > 0 ? config_.load_group_span : 64;
    return id / static_cast<uint32_t>(span);
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
  void ChargeStorage(NodeId node, uint64_t reads, uint64_t writes, double cpu_seconds);
  void ChargeMeta(NodeId node, uint64_t requests, double cpu_seconds);
  // Balance check driven after each operation (periodic or continuous).
  void MaybeTriggerBalancer();
  // Runs OnTopologyChangedInternal + coverage + fault hooks.
  void NotifyTopologyChanged();

  // ---- incremental load accounting (DESIGN.md §10) ----
  // Every byte-level mutation of a brick goes through these two so the
  // running aggregates (per-node used/capacity, fleet totals, imbalance)
  // stay exact without per-op rescans. Release clamps at zero, matching the
  // `used -= min(used, bytes)` idiom the scattered call sites used.
  void AccreteBrickBytes(Brick* brick, uint64_t bytes);
  void ReleaseBrickBytes(Brick* brick, uint64_t bytes);
  // Drops the whole index; the next read rebuilds it from the ground-truth
  // maps. Only the topology reset uses this — steady-state structural
  // mutations go through the targeted On*() updates below, which are O(1)
  // (or O(bricks-of-one-node)), because dead node entries accumulate in the
  // node maps and a full rebuild is O(all nodes ever created).
  void InvalidateLoadIndex();

  // ---- per-group load views (DESIGN.md §15) ----
  // Load group of a storage node (kInvalidLoadGroup before assignment).
  static constexpr uint32_t kInvalidLoadGroup = 0xffffffffu;
  uint32_t LoadGroupOf(NodeId id) const {
    return id < node_load_group_.size() ? node_load_group_[id] : kInvalidLoadGroup;
  }
  uint32_t load_group_count() const { return load_group_count_; }
  // Fresh (used, capacity) bytes over one load group's serving nodes.
  // Refreshes only that group's sub-aggregate if it is dirty — O(group
  // size), independent of the fleet size. This is the per-group index
  // GeoFS's two-level placement picks scheduling groups with.
  std::pair<uint64_t, uint64_t> LoadGroupUsedCap(uint32_t group) const;
  // Serving storage nodes of one load group (sorted by id). The reference
  // stays valid until the next membership mutation.
  const std::vector<NodeId>& LoadGroupServingNodes(uint32_t group) const;

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

  // Places all chunks for `size` bytes of `path`; rolls back on failure.
  Result<FileLayout> PlaceFile(const std::string& path, uint64_t size);
  // Frees brick bytes and replica-index entries held by `layout`.
  void ReleaseLayout(FileId file, const FileLayout& layout);
  void IndexLayout(FileId file, const FileLayout& layout);
  void ChargeLayoutIo(const FileLayout& layout, bool is_write);

  // Routes the request to a serving metadata node; returns kInvalidNode if
  // none are alive.
  NodeId RouteToMetaNode(const Operation& op);

  // Re-replicates chunks that lost replicas on `node` (offline/removed).
  void ScheduleRecovery(NodeId node);
  // Evacuates all data from a draining brick.
  void ScheduleEvacuation(BrickId brick);
  // Evacuates `bytes` worth of chunks off a shrunken brick.
  void ScheduleOverflowEvacuation(BrickId brick, uint64_t bytes);

  // Background migration: processes `dt` worth of queued chunk moves.
  void AdvanceBackground(SimDuration dt);
  void ExecuteMove(const ChunkMove& move);
  void FinishRebalanceIfDrained();

  void AddReplicaIndex(BrickId brick, FileId file, uint32_t chunk);
  void RemoveReplicaIndex(BrickId brick, FileId file, uint32_t chunk);

  // Candidate snapshot for recovery/evacuation target picking: the serving
  // bricks keyed by (utilization, serving order), built once per Schedule*
  // call. Each per-chunk pick consumes only an ascending prefix, so the
  // snapshot is a min-heap popped lazily — O(bricks) to build plus
  // O(log bricks) per candidate actually inspected, never a full sort.
  struct RecoveryCandidate {
    double used_fraction;
    uint32_t order;  // index in ServingBricks() — the first-wins tie-break
    BrickId id;      // brick resolved lazily, only for inspected candidates
  };
  // Heap comparator: true when `a` sorts after `b`. The (fraction, order)
  // key is a unique total order, so lazy heap pops replay exactly the fully
  // sorted sequence.
  static bool RecoveryCandidateAfter(const RecoveryCandidate& a,
                                     const RecoveryCandidate& b);
  void BeginRecoveryPass() const;
  // The rank-th least-used candidate of the current pass (pops lazily);
  // nullptr past the end.
  const RecoveryCandidate* RecoveryCandidateAt(size_t rank) const;
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

  // ---- load-index internals ----
  // Rebuilds every aggregate from the ground-truth brick/node maps. Called
  // lazily (EnsureLoadIndex) after a topology reset; all steady-state
  // mutations update the aggregates in place and never trigger a rebuild.
  void RebuildLoadIndex() const;
  void EnsureLoadIndex() const { if (load_index_dirty_) RebuildLoadIndex(); }
  // Applies the used-bytes delta of one brick (old value -> current value)
  // to the aggregates; no-op while the index is dirty (the rebuild wins).
  void ApplyUsedBytesDelta(const Brick& brick, uint64_t old_used);
  // Targeted structural updates. Each is a no-op (beyond the epoch bump)
  // while the index is dirty; the eventual rebuild reads ground truth.
  void OnStorageNodeAdded(NodeId id);
  void OnBrickAdded(const Brick& brick);
  // The node stopped serving (crashed or removed); its online bricks leave
  // the fleet aggregates but stay in the per-node ones (SampleLoad reports
  // crashed nodes' still-online bricks).
  void OnStorageNodeUnserving(NodeId id);
  // Called after a brick's online flag flipped to false.
  void OnBrickOffline(const Brick& brick);
  // Called after a brick's capacity changed while online.
  void OnBrickCapacityChanged(const Brick& brick, uint64_t old_capacity);
  // Anti-entropy: serving metadata replicas catch up to the namespace epoch
  // (unless a fault stalls them).
  void SyncMetadataReplicas();
  SimDuration TransferCost(uint64_t bytes) const;
  SimDuration ParallelTransferCost(const FileLayout& layout) const;

  Flavor flavor_;
  std::string name_;
  VirtualClock clock_;
  Rng rng_;

  // Flat id -> map-node side indexes behind the inline Find* accessors.
  void IndexBrickPtr(BrickId id, Brick* brick) {
    if (brick_index_.size() <= id) {
      brick_index_.resize(id + 1, nullptr);
    }
    brick_index_[id] = brick;
  }
  void IndexStorageNodePtr(NodeId id, StorageNode* node) {
    if (storage_node_index_.size() <= id) {
      storage_node_index_.resize(id + 1, nullptr);
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
  // Reverse index: brick -> chunks with a replica there.
  // Sorted by (file, chunk): flat vectors iterate in std::set order but keep
  // the hot SkewBytes/Schedule* scans contiguous in memory.
  std::map<BrickId, std::vector<std::pair<FileId, uint32_t>>> brick_chunks_;
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

  // Balancer crash/resume state (env faults; DESIGN.md §14). Both are false
  // in every fault-free campaign — only CrashNodeForEnvFault sets them.
  bool balancer_crashed_ = false;
  bool balancer_resume_pending_ = false;

  // ---- incremental load accounting state ----
  // Integer running sums; every derived double (utilization fractions, the
  // imbalance spread) divides the same integers a from-scratch walk would
  // sum, so cached reads are bit-identical to recomputation.
  struct NodeLoadAgg {
    uint64_t used_online = 0;  // bytes on this node's online bricks
    uint64_t cap_online = 0;   // capacity of this node's online bricks
    uint64_t used_all = 0;     // bytes on all of this node's bricks
    bool serving = false;      // node online && !crashed
  };
  mutable bool load_index_dirty_ = true;
  // Bumped on every load-affecting mutation; memoized reads key off it.
  mutable uint64_t load_epoch_ = 0;
  mutable std::vector<BrickId> serving_bricks_;        // bricks_ map order
  mutable std::vector<NodeId> serving_storage_nodes_;  // storage_nodes_ order
  // Dense by NodeId (ids are monotonic and shared with meta nodes; slots
  // that never belonged to a storage node stay default and are never read —
  // every lookup comes from a brick's owner or a serving list).
  mutable std::vector<NodeLoadAgg> node_agg_;
  mutable uint64_t fleet_used_ = 0;      // over serving bricks
  mutable uint64_t fleet_cap_ = 0;       // over serving bricks
  mutable uint64_t fleet_overflow_ = 0;  // sum of max(0, used-cap), serving
  mutable uint64_t total_used_all_ = 0;  // over every brick
  // Storage-dimension statistics over serving nodes with online capacity,
  // memoized per load_epoch_: the imbalance spread is the balancer
  // threshold quantity the per-op balance check and the coverage hash read.
  struct FractionStats {
    uint32_t nodes = 0;
    double max_fraction = 0.0;
    double spread = 0.0;  // max(0, max_fraction - fleet utilization)
  };
  const FractionStats& EnsureFractionStats() const;
  mutable uint64_t imbalance_epoch_ = UINT64_MAX;  // load_epoch_ of the memo
  mutable FractionStats fraction_memo_;

  // ---- hierarchical (per-load-group) sub-aggregates (DESIGN.md §15) ----
  // The storage-dimension statistics above are not rescanned fleet-wide any
  // more: each load group keeps its own sub-aggregate, a mutation marks only
  // the charged node's group dirty, and EnsureFractionStats re-scans the
  // dirty groups (O(group size) each) before rolling the clean group sums
  // into the cluster memo (O(group count)). Integer sums and a plain double
  // max make the rollup bit-identical to the flat fleet scan it replaced.
  struct GroupFracAgg {
    uint32_t nodes = 0;  // serving nodes with online capacity
    uint64_t used = 0;   // Σ used_online
    uint64_t cap = 0;    // Σ cap_online
    double max_fraction = 0.0;
  };
  // Group assignment: real state, written once per node by PickLoadGroup and
  // persisted (snapshot v5) — GeoFS's assignment is history-dependent.
  std::vector<uint32_t> node_load_group_;  // dense by NodeId
  uint32_t load_group_count_ = 0;          // max assigned group + 1
  void AssignLoadGroup(NodeId id);         // records PickLoadGroup(id)
  // Derived per-group state (rebuilt by RebuildLoadIndex, never persisted).
  mutable std::vector<std::vector<NodeId>> group_serving_;  // sorted by id
  mutable std::vector<GroupFracAgg> group_frac_;
  mutable std::vector<uint8_t> group_frac_dirty_;
  mutable std::vector<uint32_t> dirty_groups_;  // queue of dirty group ids
  void MarkGroupDirty(NodeId node) const;
  void EnsureGroupSlots(uint32_t group) const;
  // Rescans one group's serving members into its sub-aggregate.
  void RefreshGroupFrac(uint32_t group) const;
  // Per-group hottest serving brick, with its own dirty bits so refreshing
  // it never taxes the placement-path group refreshes. Backs
  // HottestServingBrick(); maintained by the same MarkGroupDirty funnel.
  struct GroupHotBrick {
    double fraction = -1.0;
    BrickId id = kInvalidBrick;
  };
  mutable std::vector<GroupHotBrick> group_hot_;
  mutable std::vector<uint8_t> group_hot_dirty_;
  mutable std::vector<uint32_t> hot_dirty_groups_;  // queue of dirty ids
  // Rescans one group's online bricks into its hot-brick slot.
  void RefreshGroupHotBrick(uint32_t group) const;
  // Serving metadata nodes, maintained at the (rare) membership changes so
  // per-op request routing / anti-entropy need not scan the ever-growing
  // meta_nodes_ map (removed nodes stay in it as tombstones).
  std::vector<NodeId> serving_meta_nodes_;
  // Crashed nodes, storage and meta, sorted by id. With the serving lists
  // they are the nodes SampleLoadInto reports, so the monitor's scan never
  // walks the tombstones of decommissioned nodes.
  std::vector<NodeId> crashed_node_ids_;
  void TrackCrash(NodeId id, bool crashed);
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
  // Recovery-pass candidate stream: `recovery_sorted_` is the ascending
  // prefix popped so far, `recovery_heap_` a min-heap of the rest. The
  // snapshot itself is deferred to the first candidate request, so a pass
  // that schedules nothing (no chunks on the drained bricks) costs nothing.
  mutable std::vector<RecoveryCandidate> recovery_sorted_;
  mutable std::vector<RecoveryCandidate> recovery_heap_;
  mutable bool recovery_pass_built_ = true;
  void BuildRecoveryPassNow() const;
  // UsedFraction() memo, dense by BrickId and written wherever a brick's
  // bytes or capacity change (the same pure division, so bit-identical to
  // recomputing). Lets the recovery snapshot and the per-group hot-brick
  // refresh read a flat array instead of chasing map nodes and dividing.
  std::vector<double> brick_fraction_;
  void UpdateBrickFraction(const Brick& brick);
  // Scratch for PickRecoveryTarget's per-chunk replica-node set.
  mutable std::vector<NodeId> replica_nodes_scratch_;
  // Running view of the last-8-op class window (coverage feature); one slot
  // per OpClass (file, node, volume, env_fault).
  uint32_t class_counts_[4] = {0, 0, 0, 0};
  uint8_t recent_class_mask_ = 0;
};

}  // namespace themis

#endif  // SRC_DFS_CLUSTER_H_
