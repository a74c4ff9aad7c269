// Load variance-guided fuzzing (§4.2): the Themis strategy.
//
// Each iteration dequeues a seed, mutates it, and executes it; test cases
// that enlarge the load variance across nodes, reach new coverage, or expose
// failures are fed back into the seeds pool. The guidance exploits Finding 6
// — the ultimate imbalanced state accumulates through many small variances —
// by always steering generation toward sequences that make nodes "loaded as
// differently as possible".

#ifndef SRC_CORE_FUZZER_H_
#define SRC_CORE_FUZZER_H_

#include "src/common/rng.h"
#include "src/core/generator.h"
#include "src/core/mutator.h"
#include "src/core/seed_pool.h"
#include "src/core/strategy.h"

namespace themis {

struct FuzzerConfig {
  int initial_seeds = 16;  // initial opSeq population
  // Per-op probability of drawing an environment-fault operator; 0.0 (the
  // default) leaves the fault-free grammar untouched.
  double env_fault_share = 0.0;
  // Seed-pool energy per newly covered balancer transition pair (DESIGN.md
  // §16). 0.0 (the default) keeps energy assignment bit-identical to the
  // pure load-variance signal — golden digests stand without re-pin.
  double transition_weight = 0.0;
  // Campaign event sink (seed accepted/rejected, mutation kinds); may be null.
  EventLog* telemetry = nullptr;
};

class ThemisFuzzer : public Strategy {
 public:
  ThemisFuzzer(InputModel& model, Rng& rng, FuzzerConfig config = {});

  std::string_view name() const override { return "Themis"; }
  OpSeq Next() override;
  void OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) override;
  void SaveState(SnapshotWriter& writer) const override;
  Status RestoreState(SnapshotReader& reader) override;

  const SeedPool& pool() const { return pool_; }

 private:
  FuzzerConfig config_;
  Rng& rng_;
  OpSeqGenerator generator_;
  OpSeqMutator mutator_;
  SeedPool pool_;
  int initial_remaining_;
  // Hill-climbing state: while variance keeps growing, keep applying light
  // mutations to the productive sequence ("repeatedly executing short
  // sequences of operations, with gradual variation" — Finding 5).
  OpSeq climb_seq_;
  bool climbing_ = false;
  int climb_failures_ = 0;
  int climb_length_ = 0;  // iterations in the current climb episode
};

}  // namespace themis

#endif  // SRC_CORE_FUZZER_H_
