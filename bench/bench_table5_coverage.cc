// Table 5: branch coverage reached on the four flavors in 24 hours, per
// strategy. Coverage is the simulator's branch substrate (static
// instrumentation sites + virtual state-feature branches; see
// src/coverage/coverage.h and DESIGN.md for the substitution record).

#include "bench/bench_common.h"

namespace themis {
namespace {

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  std::vector<StrategyKind> strategies = {StrategyKind::kFixReq, StrategyKind::kFixConf,
                                          StrategyKind::kAlternate,
                                          StrategyKind::kConcurrent,
                                          StrategyKind::kThemis};
  CoverageResults results = RunCoverageExperiment(strategies, budget);

  PrintHeader("Table 5: branch coverage on four target DFSes in 24 hours");
  TextTable table({"Method", "Fix_req", "Fix_conf", "Alternate", "Concurrent",
                   "Themis"});
  for (Flavor flavor : {Flavor::kHdfs, Flavor::kGluster, Flavor::kLeo, Flavor::kCeph}) {
    std::vector<std::string> row{std::string(FlavorName(flavor))};
    for (StrategyKind kind : strategies) {
      row.push_back(std::to_string(results.final_coverage[kind][flavor]));
    }
    table.AddRow(row);
  }
  table.Print();

  // The second feedback signal (DESIGN.md §16): balancer state-machine
  // transition pairs covered under the same campaigns. The per-flavor
  // gauges (model_coverage.<flavor>.transitions) land in the summary JSON.
  PrintHeader("Balancer transition-pair coverage (same campaigns)");
  TextTable transitions({"Method", "Fix_req", "Fix_conf", "Alternate",
                         "Concurrent", "Themis"});
  for (Flavor flavor : {Flavor::kHdfs, Flavor::kGluster, Flavor::kLeo, Flavor::kCeph}) {
    std::vector<std::string> row{std::string(FlavorName(flavor))};
    for (StrategyKind kind : strategies) {
      row.push_back(std::to_string(results.transition_coverage[kind][flavor]));
    }
    transitions.AddRow(row);
  }
  transitions.Print();

  // Themis's average improvement over each baseline (the paper reports
  // 18% / 21% / 13% / 10%).
  std::printf("\nThemis's mean coverage improvement: ");
  for (StrategyKind kind :
       {StrategyKind::kFixReq, StrategyKind::kFixConf, StrategyKind::kAlternate,
        StrategyKind::kConcurrent}) {
    double ratio_sum = 0;
    for (Flavor flavor : kAllFlavors) {
      double themis_cov =
          static_cast<double>(results.final_coverage[StrategyKind::kThemis][flavor]);
      double base_cov = static_cast<double>(results.final_coverage[kind][flavor]);
      ratio_sum += base_cov > 0 ? (themis_cov / base_cov - 1.0) : 0.0;
    }
    std::printf("vs %s: %+.0f%%  ", StrategyKindName(kind), 100.0 * ratio_sum / 4);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)
