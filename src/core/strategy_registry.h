// Self-registering strategy factory.
//
// Generation strategies register themselves by name at static-initialization
// time (THEMIS_REGISTER_STRATEGY in their .cc file); the campaign harness
// constructs them through StrategyRegistry::Make. Adding a new strategy
// therefore needs no harness edits — define the class, register it, and every
// front end (campaign, runner, CLI, benches) can name it.
//
// Each campaign job builds its own strategy instance against its own
// InputModel and Rng, so strategies never share mutable state across the
// runner's worker threads.

#ifndef SRC_CORE_STRATEGY_REGISTRY_H_
#define SRC_CORE_STRATEGY_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
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
  using Factory = std::function<std::unique_ptr<Strategy>(
      InputModel& model, Rng& rng, const StrategyOptions& options)>;

  static StrategyRegistry& Instance();

  // Registers `factory` under `name`. Duplicate names keep the first
  // registration (and log a warning) so a bad link line cannot silently
  // change which implementation a table measures.
  void Register(std::string name, Factory factory);

  // Builds a fresh strategy instance, or NotFound listing the known names.
  Result<std::unique_ptr<Strategy>> Make(std::string_view name, InputModel& model,
                                         Rng& rng,
                                         const StrategyOptions& options = {}) const;

  bool Contains(std::string_view name) const;

  // Registered names in sorted order.
  std::vector<std::string> Names() const;

 private:
  std::vector<std::string> NamesLocked() const;  // requires mu_ held

  mutable std::mutex mu_;
  std::map<std::string, Factory, std::less<>> factories_;
};

class StrategyRegistrar {
 public:
  StrategyRegistrar(const char* name, StrategyRegistry::Factory factory) {
    StrategyRegistry::Instance().Register(name, std::move(factory));
  }
};

#define THEMIS_STRATEGY_CONCAT_INNER(a, b) a##b
#define THEMIS_STRATEGY_CONCAT(a, b) THEMIS_STRATEGY_CONCAT_INNER(a, b)

// File-scope registration hook: expands to a static registrar whose
// constructor runs before main(). Use once per strategy, in its .cc file.
#define THEMIS_REGISTER_STRATEGY(name, factory)             \
  static const ::themis::StrategyRegistrar THEMIS_STRATEGY_CONCAT( \
      themis_strategy_registrar_, __COUNTER__)((name), (factory))

}  // namespace themis

#endif  // SRC_CORE_STRATEGY_REGISTRY_H_
