// Alternate (§3.4 Method 2 / §6.1): the Janus/Hydra-style baseline. It fixes
// a random configuration, explores the request input space coverage-guided
// until coverage converges (no new coverage for a while), then generates a
// new random configuration and repeats. The two input spaces are explored
// separately — the execution dependencies between them inside short windows
// are exactly what it misses.

#ifndef SRC_BASELINES_ALTERNATE_H_
#define SRC_BASELINES_ALTERNATE_H_

#include "src/core/generator.h"
#include "src/core/seed_pool.h"
#include "src/core/strategy.h"

namespace themis {

class AlternateStrategy : public Strategy {
 public:
  // Iterations without new coverage before switching to a new configuration.
  static constexpr int kConvergencePatience = 25;

  AlternateStrategy(InputModel& model, Rng& rng);

  std::string_view name() const override { return "Alternate"; }
  OpSeq Next() override;
  void OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) override;
  void SaveState(SnapshotWriter& writer) const override;
  Status RestoreState(SnapshotReader& reader) override;

 private:
  OpSeq NewConfigSeq();
  OpSeq RequestSeq();

  InputModel& model_;
  Rng& rng_;
  OpSeqGenerator generator_;
  SeedPool request_pool_;
  int stale_iterations_ = 0;
  bool emit_config_next_ = true;
};

}  // namespace themis

#endif  // SRC_BASELINES_ALTERNATE_H_
