#include "src/baselines/themis_minus.h"

#include "src/core/strategy_registry.h"

namespace themis {

ThemisMinusStrategy::ThemisMinusStrategy(InputModel& model, Rng& rng,
                                         double env_fault_share)
    : rng_(rng), generator_(model) {
  generator_.set_env_fault_share(env_fault_share);
}

OpSeq ThemisMinusStrategy::Next() { return generator_.Generate(rng_); }

void ThemisMinusStrategy::OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) {
  (void)seq;
  (void)outcome;  // no feedback: that is the ablation
}


THEMIS_REGISTER_STRATEGY("Themis-", [](InputModel& model, Rng& rng,
                                       const StrategyOptions& options)
                                        -> std::unique_ptr<Strategy> {
  return std::make_unique<ThemisMinusStrategy>(model, rng, options.env_fault_share);
});

}  // namespace themis
