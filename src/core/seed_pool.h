// The seeds pool (§4.1 step 3 / step 9): test cases that enlarged the load
// variance, hit new coverage, or exposed failures are retained and
// prioritized for mutation.

#ifndef SRC_CORE_SEED_POOL_H_
#define SRC_CORE_SEED_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/core/opseq.h"

namespace themis {

struct Seed {
  OpSeq seq;
  double score = 0.0;  // priority (variance gain + bonuses)
  int selections = 0;
};

class SeedPool {
 public:
  explicit SeedPool(size_t capacity = 256);

  // Inserts a seed; when the pool is full it evicts the lowest-scored seed,
  // or drops the new one if no resident scores below it.
  void Add(OpSeq seq, double score);

  // Score-weighted selection with a mild freshness bonus (rarely selected
  // seeds get a boost), AFL-style.
  const OpSeq& Select(Rng& rng);

  bool empty() const { return seeds_.empty(); }
  size_t size() const { return seeds_.size(); }
  double best_score() const;

  // Checkpointing (DESIGN.md §11): the seeds (sequences, scores, selection
  // counters). Capacity comes from the constructor.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  std::vector<Seed> seeds_;
  size_t capacity_;
};

}  // namespace themis

#endif  // SRC_CORE_SEED_POOL_H_
