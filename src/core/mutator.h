// OpSeq mutation (§4.2): AFL-style replace / delete / insert at a random set
// of positions, followed by operand re-instantiation and a repair scan that
// re-binds references to files and nodes that no longer exist.

#ifndef SRC_CORE_MUTATOR_H_
#define SRC_CORE_MUTATOR_H_

#include "src/common/rng.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/core/opseq.h"
#include "src/telemetry/event_log.h"

namespace themis {

class OpSeqMutator {
 public:
  OpSeqMutator(InputModel& model, OpSeqGenerator& generator);

  // Campaign event sink: each Mutate/MutateLight call records which mutation
  // kinds it applied. Null disables recording.
  void set_telemetry(EventLog* telemetry) { telemetry_ = telemetry; }

  // Produces a mutated copy of `seed` (always at least one mutation; length
  // stays within [1, kMaxOpSeqLen]). The result is already repaired.
  OpSeq Mutate(const OpSeq& seed, Rng& rng);

  // Light variant: exactly one mutation position — the "gradual variation"
  // used while hill-climbing a productive sequence (Finding 5).
  OpSeq MutateLight(const OpSeq& seed, Rng& rng);

  // Re-binds stale FileName / NodeId / brick operands to live ones from the
  // input model.
  void Repair(OpSeq& seq, Rng& rng);

 private:
  enum class MutationKind { kReplace, kDelete, kInsert };

  OpSeq MutateK(const OpSeq& seed, int k, Rng& rng);

  InputModel& model_;
  OpSeqGenerator& generator_;
  EventLog* telemetry_ = nullptr;
};

}  // namespace themis

#endif  // SRC_CORE_MUTATOR_H_
