// Branch-coverage substrate.
//
// The paper measures real branch coverage of HDFS / CephFS / GlusterFS /
// LeoFS with gcov / JaCoCo / ExIntegration. Our system under test is a
// simulator, so we reproduce the *metric structure* instead (see DESIGN.md):
//
//  * Static sites: instrumentation points (`COV_BRANCH`) placed throughout
//    the simulator's placement / balancer / migration code, one bit each.
//  * Virtual branches: each distinct (module, operation kind, state-feature
//    bucket) tuple observed during execution hashes to a branch id inside a
//    per-flavor virtual branch space sized to the paper's magnitudes.
//    Exploring more distinct combined request+configuration states therefore
//    hits more branches, which is exactly the monotone relationship the
//    paper's coverage tables rely on.

#ifndef SRC_COVERAGE_COVERAGE_H_
#define SRC_COVERAGE_COVERAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/snapshot_io.h"

namespace themis {

// Coarse module tag for instrumentation sites. Values are stable; they feed
// the branch hash.
enum class CovModule : uint8_t {
  kRequest = 0,     // client request handling
  kNamespace = 1,   // directory tree updates
  kPlacement = 2,   // chunk placement decisions
  kMembership = 3,  // node add / remove handling
  kVolume = 4,      // brick / volume management
  kBalancer = 5,    // load calculation + plan building
  kMigration = 6,   // data migration execution
  kReplication = 7, // replica repair
  kRecovery = 8,    // offline-node recovery
  kAdmin = 9,       // rebalance API handling
};

class CoverageRecorder {
 public:
  // `virtual_space` is the flavor's virtual branch count (see
  // FlavorBranchSpace); `seed` decorrelates campaigns.
  explicit CoverageRecorder(size_t virtual_space, uint64_t seed = 0);

  // Records an instrumented branch site. Returns true if it was new.
  bool HitStatic(CovModule module, uint32_t site);

  // Records a state-feature tuple. `multiplicity` is how many branches this
  // state unlocks (1..16): code running far from the balanced state exercises
  // branch-rich emergency paths (multi-round planning, throttling, retries)
  // that a near-balanced run never reaches, so callers scale it with the
  // current imbalance. Returns the number of branches newly set.
  size_t HitState(CovModule module, uint64_t feature_hash, int multiplicity = 1);

  // Number of distinct branches (static + virtual) hit so far.
  size_t TotalHits() const { return static_hits_ + virtual_hits_; }
  size_t StaticHits() const { return static_hits_; }
  size_t VirtualHits() const { return virtual_hits_; }

  size_t virtual_space() const { return bits_.size(); }

  void Reset();

  // Checkpointing (DESIGN.md §11): both bitmaps (packed 8 bits/byte). Restore
  // fails unless the saved bitmap sizes match this recorder's (i.e. same
  // flavor branch space), recounts the hits from the bitmaps, and keeps the
  // hash seed this recorder was built with.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  std::vector<bool> bits_;          // virtual branch bitmap
  std::vector<bool> static_bits_;   // static site bitmap
  size_t static_hits_ = 0;
  size_t virtual_hits_ = 0;
  uint64_t seed_ = 0;
};

// Convenience macro for static sites. `cov` may be null.
#define COV_BRANCH(cov, module, site)                             \
  do {                                                            \
    if ((cov) != nullptr) {                                       \
      (cov)->HitStatic((module), (site));                         \
    }                                                             \
  } while (0)

}  // namespace themis

#endif  // SRC_COVERAGE_COVERAGE_H_
