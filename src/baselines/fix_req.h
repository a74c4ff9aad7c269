// Fix_req (§6.1): the CrashFuzz-style baseline. A fixed client-request
// workload (a benchmark-like mix of create/append/open/delete) is replayed
// while a coverage-guided fuzzer explores only the system-configuration
// input space (node and volume operations). Each test case interleaves the
// fixed requests with the explored configuration sequence, mirroring fault
// injection during a running workload.

#ifndef SRC_BASELINES_FIX_REQ_H_
#define SRC_BASELINES_FIX_REQ_H_

#include "src/core/generator.h"
#include "src/core/mutator.h"
#include "src/core/seed_pool.h"
#include "src/core/strategy.h"

namespace themis {

class FixReqStrategy : public Strategy {
 public:
  FixReqStrategy(InputModel& model, Rng& rng);

  std::string_view name() const override { return "Fix_req"; }
  OpSeq Next() override;
  void OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) override;
  void SaveState(SnapshotWriter& writer) const override;
  Status RestoreState(SnapshotReader& reader) override;

 private:
  OpSeq FixedRequests(Rng& rng);
  OpSeq GenerateConfigSeq(int len);

  InputModel& model_;
  Rng& rng_;
  OpSeqGenerator generator_;
  SeedPool config_pool_;
  OpSeq last_config_seq_;
};

}  // namespace themis

#endif  // SRC_BASELINES_FIX_REQ_H_
