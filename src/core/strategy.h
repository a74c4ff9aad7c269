// The test-case generation strategy interface. Themis and the four baselines
// of §6 (Fix_req, Fix_conf, Alternate, Concurrent) plus the Themis⁻ ablation
// all implement it; the campaign harness drives them through the identical
// executor + detector so comparisons isolate the generation strategy,
// exactly as the paper's evaluation does ("we enhanced them with our
// imbalance detectors").

#ifndef SRC_CORE_STRATEGY_H_
#define SRC_CORE_STRATEGY_H_

#include <string_view>

#include "src/common/snapshot_io.h"
#include "src/core/executor.h"
#include "src/core/opseq.h"

namespace themis {

class SeedPool;

class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual std::string_view name() const = 0;

  // The next test case to execute.
  virtual OpSeq Next() = 0;

  // Feedback from executing the test case returned by Next().
  virtual void OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) = 0;

  // Checkpointing (DESIGN.md §11): strategies with schedule state (seed
  // pools, climb episodes, alternation counters) override these; stateless
  // strategies inherit the empty defaults. Save and Restore must agree on
  // the byte layout within one strategy.
  virtual void SaveState(SnapshotWriter& writer) const { (void)writer; }
  virtual Status RestoreState(SnapshotReader& reader) {
    (void)reader;
    return Status::Ok();
  }

  // Inert seams: no strategy overrides these and nothing in src/ calls
  // them. They stay only because the benchmark decorator in
  // campaign_bench/traced_campaign.cc overrides both; drop them together
  // with that override.
  virtual bool ImportSeed(const OpSeq& seq, double score,
                          uint64_t fingerprint) {
    (void)seq;
    (void)score;
    (void)fingerprint;
    return false;
  }
  virtual const SeedPool* seed_pool() const { return nullptr; }
};

}  // namespace themis

#endif  // SRC_CORE_STRATEGY_H_
