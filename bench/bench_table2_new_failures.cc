// Table 2: the 10 previously unknown imbalance failures Themis detects in
// 24-hour campaigns across the four DFS flavors.

#include "bench/bench_common.h"
#include "src/faults/fault_registry.h"

namespace themis {
namespace {

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  NewBugFindings findings = RunNewBugExperiment({"Themis"}, budget);
  const auto& found = findings.found["Themis"];

  PrintHeader("Table 2: new imbalance failures detected by Themis (24h campaigns)");
  TextTable table({"#", "Platform", "Failure Type", "Identifier", "Found",
                   "First confirmed (min)"});
  int index = 1;
  int total_found = 0;
  for (const FaultSpec& spec : NewBugRegistry()) {
    auto it = found.find(spec.id);
    bool hit = it != found.end();
    total_found += hit ? 1 : 0;
    table.AddRow({std::to_string(index++), std::string(FlavorName(spec.platform)),
                  FailureTypeName(spec.type), spec.id, hit ? "yes" : "no",
                  hit ? Sprintf("%.1f", ToMinutes(it->second)) : "-"});
  }
  table.Print();
  std::printf("\nThemis found %d/10 new imbalance failures "
              "(%d repeated campaigns per flavor, %lld virtual hours each); "
              "false positives across all campaigns: %d\n",
              total_found, budget.seeds,
              static_cast<long long>(budget.campaign / Hours(1)),
              findings.false_positives["Themis"]);

  PrintHeader("Root cause notes (from the registry)");
  for (const FaultSpec& spec : NewBugRegistry()) {
    std::printf("%-13s %s\n", spec.id.c_str(), spec.description.c_str());
  }
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)
