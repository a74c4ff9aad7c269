// The strategy factory: one fixed table of the paper's six generation
// strategies (Themis, its Themis- ablation and the four baselines of §6),
// each a name and a plain factory function (src/core/strategy_registry.cc).
// The campaign harness constructs strategies through StrategyRegistry::Make,
// so every front end (campaign, runner, CLI, benches) names them the same way.
//
// Each campaign job builds its own strategy instance against its own
// InputModel and Rng, so strategies never share mutable state across the
// runner's worker threads.

#ifndef SRC_CORE_STRATEGY_REGISTRY_H_
#define SRC_CORE_STRATEGY_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/input_model.h"
#include "src/core/strategy.h"
#include "src/telemetry/event_log.h"

namespace themis {

// Knobs every strategy understands; factories may ignore what they don't use.
struct StrategyOptions {
  // Probability of drawing an environment-fault operator per generated op
  // (DESIGN.md §14). 0.0 keeps the fault-free grammar and its RNG draw
  // sequence untouched; campaigns with env faults enabled pass a nonzero
  // share through to the generator.
  double env_fault_share = 0.0;
  // Seed energy per newly covered balancer state-machine transition pair
  // (DESIGN.md §16). 0.0 keeps energy assignment bit-identical to the pure
  // load-variance signal.
  double transition_weight = 0.0;
  // Campaign event sink (owned by the campaign); strategies that record
  // telemetry write here. Null = no event collection.
  EventLog* telemetry = nullptr;
};

class StrategyRegistry {
 public:
  static const StrategyRegistry& Instance();

  // Builds a fresh strategy instance, or NotFound listing the known names.
  Result<std::unique_ptr<Strategy>> Make(std::string_view name, InputModel& model,
                                         Rng& rng,
                                         const StrategyOptions& options = {}) const;

  bool Contains(std::string_view name) const;

  // The strategy names in sorted order.
  std::vector<std::string> Names() const;
};

}  // namespace themis

#endif  // SRC_CORE_STRATEGY_REGISTRY_H_
