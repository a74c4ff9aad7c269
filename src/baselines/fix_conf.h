// Fix_conf (§6.1): the SmallFile/Filebench-style baseline. The cluster
// configuration is set up once (a fixed prelude of configuration operations
// right after start/reset) and then only the client-request input space is
// explored, coverage-guided.

#ifndef SRC_BASELINES_FIX_CONF_H_
#define SRC_BASELINES_FIX_CONF_H_

#include "src/core/generator.h"
#include "src/core/seed_pool.h"
#include "src/core/strategy.h"

namespace themis {

class FixConfStrategy : public Strategy {
 public:
  FixConfStrategy(InputModel& model, Rng& rng);

  std::string_view name() const override { return "Fix_conf"; }
  OpSeq Next() override;
  void OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) override;
  void SaveState(SnapshotWriter& writer) const override;
  Status RestoreState(SnapshotReader& reader) override;

 private:
  OpSeq RequestSeq();

  InputModel& model_;
  Rng& rng_;
  OpSeqGenerator generator_;
  SeedPool request_pool_;
  bool prelude_pending_ = true;
};

}  // namespace themis

#endif  // SRC_BASELINES_FIX_CONF_H_
