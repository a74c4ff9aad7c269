// Balancer state-machine transition coverage (second feedback signal).
//
// The load-variance model scores *how far* a seed pushes the cluster from
// balance, but cannot tell two seeds apart that stress different *phases*
// of a balancer (plan building vs. migration vs. crash recovery). Following
// model-guided fuzzing of distributed systems (PAPERS.md), each flavor
// declares an explicit abstract state machine for its balancer:
//
//   Gluster:  idle -> fix-layout -> migrate-data -> settle -> idle
//   HDFS:     idle -> iteration -> source/target pairing -> block move
//             -> settle -> idle
//   Ceph:     idle -> upmap compute -> apply -> settle -> idle
//   Leo:      idle -> ring plan -> takeover -> settle -> idle
//   Geo:      idle -> site-drain -> group rebalance -> settle -> idle
//
// plus two generic states shared by every flavor: `idle` and `crashed`
// (balancer daemon killed by an env fault; restart returns it to idle).
// An empty plan short-circuits from the last planning phase straight to
// settle. The existing rebalance paths emit transition events; this class
// records distinct (from, to) pairs as coverage, checks each event against
// the declared machine (the differential oracle in model_coverage_test
// asserts zero illegal transitions), and serializes the covered pairs into
// its snapshot record so checkpoint/resume stays bit-exact.

#ifndef SRC_COVERAGE_MODEL_COVERAGE_H_
#define SRC_COVERAGE_MODEL_COVERAGE_H_

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/snapshot_io.h"
#include "src/dfs/types.h"

namespace themis {

// Abstract balancer states. Values are stable: they are serialized in
// snapshots and feed the transition-pair index.
enum class BalancerState : uint8_t {
  kIdle = 0,     // no rebalance round active (all flavors)
  kCrashed = 1,  // balancer daemon down after an env-fault crash

  kGlusterFixLayout = 2,    // DHT layout consult before migration
  kGlusterMigrateData = 3,  // hash-mismatch + leveling moves draining
  kGlusterSettle = 4,       // queue drained, linkfile reconcile

  kHdfsIteration = 5,  // balancer iteration start (utilization snapshot)
  kHdfsPairing = 6,    // over/under-utilized source/target pairing
  kHdfsBlockMove = 7,  // scheduled block moves draining
  kHdfsSettle = 8,     // iteration complete

  kCephUpmapCompute = 9,  // upmap exception table computed
  kCephApply = 10,        // upmap/backfill moves draining
  kCephSettle = 11,       // peering settled

  kLeoRingPlan = 12,  // ring position plan (RING_CUR vs RING_PREV)
  kLeoTakeover = 13,  // object takeover moves draining
  kLeoSettle = 14,    // ring committed

  kGeoSiteDrain = 15,       // hot-site failover donors selected
  kGeoGroupRebalance = 16,  // scheduling-group leveling moves draining
  kGeoSettle = 17,          // sites converged

  kCount = 18,
};

inline constexpr size_t kBalancerStateCount =
    static_cast<size_t>(BalancerState::kCount);

std::string_view BalancerStateName(BalancerState state);

// True when `state` may appear in a `flavor` campaign (the two generic
// states plus the flavor's own phases). kCustom clusters reuse the HDFS
// machine: they are generic utilization levelers.
bool BalancerStateBelongsTo(Flavor flavor, BalancerState state);

// True when the declared machine for `flavor` has the edge from -> to.
bool IsLegalBalancerTransition(Flavor flavor, BalancerState from,
                               BalancerState to);

// Per-flavor anchors used by the generic lifecycle code in DfsCluster:
// the state entered when planned moves start draining, and the state
// emitted when the queue drains (or the plan comes back empty).
BalancerState BalancerMoveState(Flavor flavor);
BalancerState BalancerSettleState(Flavor flavor);

// Records transition-pair coverage for one cluster. Not thread-safe (one
// instance per campaign job, like CoverageRecorder). Recording draws no
// RNG and never feeds CampaignResult::Digest(), so attaching a recorder
// leaves campaign behavior bit-identical; only the (opt-in) fitness blend
// in ThemisFuzzer reads the coverage.
class ModelCoverage {
 public:
  explicit ModelCoverage(Flavor flavor);

  Flavor flavor() const { return flavor_; }
  BalancerState current() const { return current_; }

  // Records the event current() -> to and advances the current state.
  // Returns true if the (from, to) pair was new. Illegal edges are still
  // recorded (so they show up in dumps) but bump illegal_transitions().
  bool Transition(BalancerState to);

  // Forces the current state back to idle without recording an edge —
  // used when the whole cluster is rebuilt from the initial topology
  // (confirmed-failure reset), which is not a balancer action.
  void ForceIdle() { current_ = BalancerState::kIdle; }

  // Distinct (from, to) pairs seen. Monotone within a campaign.
  size_t TransitionsCovered() const { return covered_.count(); }
  uint64_t illegal_transitions() const { return illegal_; }

  // The covered (from, to) pairs in ascending (from, to) order (the form
  // CampaignResult::transition_pairs carries).
  std::vector<std::pair<BalancerState, BalancerState>> CoveredPairs() const;

  void Reset();

  // Checkpointing (DESIGN.md §16): flavor, current state, the illegal count
  // and the covered (from, to) pairs in ascending order. Restore fails on a
  // flavor mismatch, a state id outside the flavor's machine, or a pair
  // listed twice.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  static size_t PairIndex(BalancerState from, BalancerState to) {
    return static_cast<size_t>(from) * kBalancerStateCount +
           static_cast<size_t>(to);
  }

  Flavor flavor_;
  BalancerState current_ = BalancerState::kIdle;
  std::bitset<kBalancerStateCount * kBalancerStateCount> covered_;  // row = from
  uint64_t illegal_ = 0;
};

}  // namespace themis

#endif  // SRC_COVERAGE_MODEL_COVERAGE_H_
