// Initial OpSeq generation (§4.2): operators drawn uniformly from the 17
// load-related operations, operands instantiated by category through the
// input model.

#ifndef SRC_CORE_GENERATOR_H_
#define SRC_CORE_GENERATOR_H_

#include "src/common/rng.h"
#include "src/core/input_model.h"
#include "src/core/opseq.h"

namespace themis {

class OpSeqGenerator {
 public:
  explicit OpSeqGenerator(InputModel& model);

  // Probability that a generated operation is an environment-fault operator
  // (DESIGN.md §14) instead of one of the 17 load-related operators. Exactly
  // 0.0 — the default — skips the extra RNG draw entirely, so fault-free
  // campaigns keep the PR-6 draw sequence bit-for-bit.
  void set_env_fault_share(double share) { env_fault_share_ = share; }
  double env_fault_share() const { return env_fault_share_; }

  // A sequence of `len` operations (len <= 0: random in [1, kMaxOpSeqLen]).
  OpSeq Generate(Rng& rng, int len = 0);

  // One operation with a uniformly random operator.
  Operation GenerateOp(Rng& rng);

  // One operation whose operator comes from the given class.
  Operation GenerateOpOfClass(OpClass op_class, Rng& rng);

  // One operation with a fixed operator and fresh operands.
  Operation GenerateOpOfKind(OpKind kind, Rng& rng);

 private:
  InputModel& model_;
  double env_fault_share_ = 0.0;
};

}  // namespace themis

#endif  // SRC_CORE_GENERATOR_H_
