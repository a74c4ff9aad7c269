// The seeds pool (§4.1 step 3 / step 9): test cases that enlarged the load
// variance, hit new coverage, or exposed failures are retained and
// prioritized for mutation.

#ifndef SRC_CORE_SEED_POOL_H_
#define SRC_CORE_SEED_POOL_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/core/opseq.h"

namespace themis {

struct Seed {
  OpSeq seq;
  double score = 0.0;  // priority (variance gain + bonuses)
  uint64_t id = 0;
  int selections = 0;
  uint64_t fingerprint = 0;  // OpSeqFingerprint(seq), the pool dedup key
  bool imported = false;     // arrived via ImportSeed(), not Add()
};

class SeedPool {
 public:
  explicit SeedPool(size_t capacity = 256);

  void Add(OpSeq seq, double score);

  // Inserts a seed from outside the pool's own Add() path (what
  // Strategy::ImportSeed forwards to), deduplicated by fingerprint against
  // every sequence this pool has ever held, including evicted ones. A duplicate import is a no-op except for
  // an energy merge: the resident seed's score becomes
  // max(resident, imported), which is commutative and idempotent, so the
  // pool converges to the same energies regardless of import order.
  // Returns true when a new seed entered the pool. Empty sequences are
  // rejected.
  bool ImportSeed(OpSeq seq, double score, uint64_t fingerprint);

  // Score-weighted selection with a mild freshness bonus (rarely selected
  // seeds get a boost), AFL-style.
  const OpSeq& Select(Rng& rng);

  bool empty() const { return seeds_.empty(); }
  size_t size() const { return seeds_.size(); }
  double best_score() const;

  // Whether a fingerprint was ever added, imported, or evicted here.
  bool SeenFingerprint(uint64_t fingerprint) const {
    return seen_.count(fingerprint) != 0;
  }

  // Read-only view of the pool, for checkpoint round-trip verification.
  const std::vector<Seed>& seeds() const { return seeds_; }

  // Checkpointing (DESIGN.md §11): the seeds (sequences, scores, selection
  // counters, fingerprints), the id allocator, and the seen-fingerprint set
  // (sorted, so the encoding is canonical). Capacity comes from the
  // constructor.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  // Shared insert tail for Add/ImportSeed: evict-worst when full, then
  // append. Returns false when the pool was full of better seeds.
  bool Insert(OpSeq seq, double score, uint64_t fingerprint, bool imported);

  std::vector<Seed> seeds_;
  size_t capacity_;
  uint64_t next_id_ = 1;
  // Dedup history. Only ever membership-tested (never iterated except in
  // sorted order for SaveState), so the unordered layout cannot leak into
  // campaign behavior.
  std::unordered_set<uint64_t> seen_;
};

}  // namespace themis

#endif  // SRC_CORE_SEED_POOL_H_
