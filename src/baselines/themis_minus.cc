#include "src/baselines/themis_minus.h"

#include "src/core/strategy_registry.h"

namespace themis {

ThemisMinusStrategy::ThemisMinusStrategy(InputModel& model, Rng& rng, int max_len)
    : rng_(rng), generator_(model, max_len) {}

OpSeq ThemisMinusStrategy::Next() { return generator_.Generate(rng_); }

void ThemisMinusStrategy::OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) {
  (void)seq;
  (void)outcome;  // no feedback: that is the ablation
}


THEMIS_REGISTER_STRATEGY("Themis-", [](InputModel& model, Rng& rng,
                                       const StrategyOptions&)
                                        -> std::unique_ptr<Strategy> {
  return std::make_unique<ThemisMinusStrategy>(model, rng);
});

}  // namespace themis
