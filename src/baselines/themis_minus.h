// Themis⁻ (§6.3): Themis with the load variance model disabled — operation
// sequences are generated randomly with no feedback-driven seed retention.
// Before any feedback it draws exactly what Themis draws: the same generator
// over the same grammar, env-fault operators included.

#ifndef SRC_BASELINES_THEMIS_MINUS_H_
#define SRC_BASELINES_THEMIS_MINUS_H_

#include "src/core/generator.h"
#include "src/core/strategy.h"

namespace themis {

class ThemisMinusStrategy : public Strategy {
 public:
  // `env_fault_share`: as OpSeqGenerator::set_env_fault_share.
  ThemisMinusStrategy(InputModel& model, Rng& rng, double env_fault_share = 0.0);

  std::string_view name() const override { return "Themis-"; }
  OpSeq Next() override;
  void OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) override;

 private:
  Rng& rng_;
  OpSeqGenerator generator_;
};

}  // namespace themis

#endif  // SRC_BASELINES_THEMIS_MINUS_H_
