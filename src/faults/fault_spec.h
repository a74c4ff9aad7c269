// Fault specifications.
//
// An imbalance failure in a real DFS is, operationally, a *trigger predicate
// over execution history* plus an *effect on load distribution* that the
// load-balancing mechanism cannot undo (§2.2: the system cannot recover to
// LBS on its own). FaultSpec encodes exactly that structure. The registry in
// fault_registry.cc instantiates the paper's 10 new failures (Table 2); the
// historical corpus in historical_corpus.cc derives 53 more from the study
// records.

#ifndef SRC_FAULTS_FAULT_SPEC_H_
#define SRC_FAULTS_FAULT_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/dfs/operation.h"
#include "src/dfs/types.h"
#include "src/study/study_corpus.h"

namespace themis {

// The observable failure dimension (Table 2 "Failure Type").
enum class FailureType : uint8_t {
  kImbalancedStorage = 0,
  kImbalancedCpu,
  kImbalancedNetwork,
  kCrash,
};

const char* FailureTypeName(FailureType type);

// How the active fault corrupts the system.
enum class EffectKind : uint8_t {
  // Storage effects.
  kHotspotAccumulation = 0,  // data keeps landing on / staying on one node
  kMigrationDataLoss,        // migration deletes instead of moving
  kLinkfileUnlink,           // gluster #1: destructive linkfile unlink
  kPlanSkipsVictim,          // balancer plan never drains the hotspot
  kWrongTargetMigration,     // balancer moves data *onto* the hotspot
  // Computation / network effects.
  kCpuSkew,                  // one node burns CPU permanently
  kNetworkSkew,              // one node absorbs the request stream
  // Control effects.
  kRebalanceHang,            // rebalance command silently does nothing
  kCrashNode,                // a storage node dies
};

// When a fault becomes active (§3.2, Findings 4-6). All listed conditions
// must hold over the recent execution window; then the fault fires with
// `probability` per operation.
struct TriggerRequirement {
  int window = 8;                    // length of the inspected op window
  int min_window_ops = 1;            // ops required inside the window
  bool needs_requests = false;       // a file_op must appear in the window
  bool needs_node_ops = false;       // a node_op must appear in the window
  bool needs_volume_ops = false;     // a volume_op must appear in the window
  int min_distinct_kinds = 1;        // distinct operators in the window
  std::vector<OpKind> required_kinds;  // all must appear in the window
  int min_rebalance_rounds = 0;        // completed rounds since reset
  int min_rebalances_in_window = 0;    // rounds completed within the window
  double min_variance = 0.0;           // storage imbalance precondition
  // Deep-bug discriminator (Finding 6): the imbalance must not merely spike —
  // it must *persist*: `min_variance` held over `min_variance_streak`
  // consecutive operations. A random volume reduction spikes the spread for
  // a moment; only workloads that keep re-skewing faster than migration
  // drains sustain it.
  int min_variance_streak = 0;
  // Finding 5's second half: deep failures are triggered by "repeatedly
  // executing short sequences of up to 8 operations, with gradual variation
  // in the operation sequences as they are repeated". Steadiness is the
  // operator-multiset overlap between the last window and the one before it;
  // a seed-mutation loop re-running one sequence with small variations
  // produces overlap near 1, fresh random sequences near 0.3.
  double min_steadiness = 0.0;
  // Finding 6: "the load imbalanced status is not achieved all one stroke;
  // rather, it accumulates gradually". When set, the storage imbalance must
  // be measurably higher now than it was ~12 operations ago — the workload
  // is *driving* the divergence, not sitting on a random plateau.
  bool needs_accumulation = false;
  // Minimum number of recent file operations that touched data resident on
  // the currently hottest brick. Deep imbalance bugs fire when load keeps
  // concentrating on the nascent hotspot — the signature of a workload
  // steered by variance feedback (retained seeds keep naming the files that
  // grew the skew), not of uniformly random operand choice.
  int min_hotspot_touches = 0;
  // Environment-fault gate (DESIGN.md §14): an env_fault operator must
  // appear in the window. Combine with `required_kinds` naming specific
  // kEnv* operators to demand a particular fault schedule. Specs with this
  // set can never trigger in a fault-free campaign (the fault-free grammar
  // cannot produce env_fault ops), which is what makes the env-gated
  // registry bugs a clean reachability experiment.
  bool needs_env_faults = false;
  double probability = 1.0;            // per-op chance once satisfied
};

struct FaultSpec {
  std::string id;
  Flavor platform = Flavor::kHdfs;
  FailureType type = FailureType::kImbalancedStorage;
  StudyRootCause cause = StudyRootCause::kMigration;
  std::string description;
  TriggerRequirement trigger;
  EffectKind effect = EffectKind::kHotspotAccumulation;
  // Target sustained imbalance (max/mean - 1) the effect drives toward.
  double severity = 0.45;
  // Windows-only / hardware-gated failures never trigger in our environment
  // (§6.1.2's five undetectable failures).
  bool environment_gated = false;
};

}  // namespace themis

#endif  // SRC_FAULTS_FAULT_SPEC_H_
