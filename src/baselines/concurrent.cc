#include "src/baselines/concurrent.h"

#include "src/core/strategy_registry.h"

namespace themis {

ConcurrentStrategy::ConcurrentStrategy(InputModel& model, Rng& rng)
    : model_(model), rng_(rng), generator_(model) {}

OpSeq ConcurrentStrategy::Next() {
  // Stress requests and configuration churn generated in parallel, then
  // interleaved as they would arrive at the cluster.
  int request_len = static_cast<int>(rng_.NextRange(2, 6));
  int config_len = static_cast<int>(rng_.NextRange(1, 3));
  OpSeq requests;
  for (int i = 0; i < request_len; ++i) {
    requests.ops.push_back(generator_.GenerateOpOfClass(OpClass::kFile, rng_));
  }
  OpSeq configs;
  for (int i = 0; i < config_len; ++i) {
    OpClass cls = rng_.Chance(0.5) ? OpClass::kNode : OpClass::kVolume;
    configs.ops.push_back(generator_.GenerateOpOfClass(cls, rng_));
  }
  OpSeq combined;
  size_t r = 0;
  size_t c = 0;
  while (r < requests.ops.size() || c < configs.ops.size()) {
    if (r < requests.ops.size()) {
      combined.ops.push_back(requests.ops[r++]);
    }
    if (c < configs.ops.size()) {
      combined.ops.push_back(configs.ops[c++]);
    }
  }
  return combined;
}

void ConcurrentStrategy::OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) {
  (void)seq;
  (void)outcome;  // feedback unusable by construction
}


THEMIS_REGISTER_STRATEGY("Concurrent", [](InputModel& model, Rng& rng,
                                          const StrategyOptions&)
                                           -> std::unique_ptr<Strategy> {
  return std::make_unique<ConcurrentStrategy>(model, rng);
});

}  // namespace themis
