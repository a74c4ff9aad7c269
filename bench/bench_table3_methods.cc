// Table 3: new imbalance failures found by Themis vs the four baseline
// generation strategies (Fix_req, Fix_conf, Alternate, Concurrent), all
// sharing the same executor and imbalance detector.

#include "bench/bench_common.h"
#include "src/faults/fault_registry.h"

namespace themis {
namespace {

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  std::vector<std::string> strategies(kComparedStrategies.begin(),
                                      kComparedStrategies.end());
  NewBugFindings findings = RunNewBugExperiment(strategies, budget);

  PrintHeader("Table 3: new imbalance failures found per method");
  TextTable table({"Method", "Number", "Bug IDs"});
  for (const std::string& strategy : strategies) {
    const auto& found = findings.found[strategy];
    std::string ids;
    int index = 1;
    for (const FaultSpec& spec : NewBugRegistry()) {
      if (found.count(spec.id) != 0) {
        if (!ids.empty()) {
          ids += ", ";
        }
        ids += "#" + std::to_string(index);
      }
      ++index;
    }
    table.AddRow({strategy, std::to_string(found.size()), ids.empty() ? "-" : ids});
  }
  table.Print();
  std::printf("\n(bug numbering follows Table 2; %d repeated %lld-hour campaigns per "
              "flavor and tool)\n",
              budget.seeds, static_cast<long long>(budget.campaign / Hours(1)));
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)
