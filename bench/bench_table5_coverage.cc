// Table 5: branch coverage reached on the four flavors in 24 hours, per
// strategy. Coverage is the simulator's branch substrate (static
// instrumentation sites + virtual state-feature branches; see
// src/coverage/coverage.h and DESIGN.md for the substitution record).

#include "bench/bench_common.h"

namespace themis {
namespace {

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  std::vector<std::string> strategies = {"Fix_req", "Fix_conf", "Alternate", "Concurrent",
                                         "Themis"};
  CoverageResults results = RunCoverageExperiment(strategies, budget);

  PrintHeader("Table 5: branch coverage on four target DFSes in 24 hours");
  TextTable table({"Method", "Fix_req", "Fix_conf", "Alternate", "Concurrent",
                   "Themis"});
  for (Flavor flavor : {Flavor::kHdfs, Flavor::kGluster, Flavor::kLeo, Flavor::kCeph}) {
    std::vector<std::string> row{std::string(FlavorName(flavor))};
    for (const std::string& strategy : strategies) {
      row.push_back(std::to_string(results.final_coverage[strategy][flavor]));
    }
    table.AddRow(row);
  }
  table.Print();

  // Themis's average improvement over each baseline (the paper reports
  // 18% / 21% / 13% / 10%).
  std::printf("\nThemis's mean coverage improvement: ");
  for (const char* baseline : {"Fix_req", "Fix_conf", "Alternate", "Concurrent"}) {
    double ratio_sum = 0;
    for (Flavor flavor : kAllFlavors) {
      double themis_cov = static_cast<double>(results.final_coverage["Themis"][flavor]);
      double base_cov = static_cast<double>(results.final_coverage[baseline][flavor]);
      ratio_sum += base_cov > 0 ? (themis_cov / base_cov - 1.0) : 0.0;
    }
    std::printf("vs %s: %+.0f%%  ", baseline, 100.0 * ratio_sum / 4);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)
