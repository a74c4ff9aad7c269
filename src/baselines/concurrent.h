// Concurrent (§3.4 Method 3 / §6.1): request and configuration inputs are
// generated simultaneously and independently — every test case interleaves a
// random request burst with random configuration changes. No runtime
// feedback is usable, because neither space's generator knows which change
// caused the observed state: it is a random search over the joint space.

#ifndef SRC_BASELINES_CONCURRENT_H_
#define SRC_BASELINES_CONCURRENT_H_

#include "src/core/generator.h"
#include "src/core/strategy.h"

namespace themis {

class ConcurrentStrategy : public Strategy {
 public:
  ConcurrentStrategy(InputModel& model, Rng& rng);

  std::string_view name() const override { return "Concurrent"; }
  OpSeq Next() override;
  void OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) override;

 private:
  InputModel& model_;
  Rng& rng_;
  OpSeqGenerator generator_;
};

}  // namespace themis

#endif  // SRC_BASELINES_CONCURRENT_H_
