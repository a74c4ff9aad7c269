#include "src/core/strategy_registry.h"

#include <iterator>

#include "src/baselines/alternate.h"
#include "src/baselines/concurrent.h"
#include "src/baselines/fix_conf.h"
#include "src/baselines/fix_req.h"
#include "src/baselines/themis_minus.h"
#include "src/common/strings.h"
#include "src/core/fuzzer.h"

namespace themis {

namespace {

using Factory = std::unique_ptr<Strategy> (*)(InputModel& model, Rng& rng,
                                              const StrategyOptions& options);

// "Themis" is the full variance-guided fuzzer; "Themis-" is its ablation
// without the feedback (src/baselines/themis_minus.cc).
std::unique_ptr<Strategy> MakeThemis(InputModel& model, Rng& rng,
                                     const StrategyOptions& options) {
  FuzzerConfig config;
  config.env_fault_share = options.env_fault_share;
  config.transition_weight = options.transition_weight;
  config.telemetry = options.telemetry;
  return std::make_unique<ThemisFuzzer>(model, rng, config);
}

std::unique_ptr<Strategy> MakeThemisMinus(InputModel& model, Rng& rng,
                                          const StrategyOptions& options) {
  return std::make_unique<ThemisMinusStrategy>(model, rng, options.env_fault_share);
}

template <typename T>
std::unique_ptr<Strategy> MakeBaseline(InputModel& model, Rng& rng, const StrategyOptions&) {
  return std::make_unique<T>(model, rng);
}

struct Entry {
  std::string_view name;
  Factory make;
};

// Sorted by name, the order Names() reports.
constexpr Entry kStrategies[] = {
    {"Alternate", MakeBaseline<AlternateStrategy>},
    {"Concurrent", MakeBaseline<ConcurrentStrategy>},
    {"Fix_conf", MakeBaseline<FixConfStrategy>},
    {"Fix_req", MakeBaseline<FixReqStrategy>},
    {"Themis", MakeThemis},
    {"Themis-", MakeThemisMinus},
};

const Entry* Find(std::string_view name) {
  for (const Entry& entry : kStrategies) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

}  // namespace

const StrategyRegistry& StrategyRegistry::Instance() {
  static const StrategyRegistry registry;
  return registry;
}

Result<std::unique_ptr<Strategy>> StrategyRegistry::Make(
    std::string_view name, InputModel& model, Rng& rng,
    const StrategyOptions& options) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) {
    return Status::NotFound("unknown strategy '" + std::string(name) +
                            "'; registered: " + Join(Names(), ", "));
  }
  return entry->make(model, rng, options);
}

bool StrategyRegistry::Contains(std::string_view name) const { return Find(name) != nullptr; }

std::vector<std::string> StrategyRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(std::size(kStrategies));
  for (const Entry& entry : kStrategies) {
    names.emplace_back(entry.name);
  }
  return names;
}

}  // namespace themis
