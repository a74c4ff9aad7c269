// Table 7: false positives and true positives of Themis across variance
// threshold t values from 5% to 35% (the detector accuracy study, §6.4).

#include "bench/bench_common.h"

namespace themis {
namespace {

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  std::vector<double> thresholds = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35};
  std::vector<ThresholdSweepRow> rows = RunThresholdSweep(thresholds, budget);

  PrintHeader("Table 7: Themis accuracy vs variance threshold t");
  TextTable table({"Threshold t", "False Positives", "True Positives"});
  for (const ThresholdSweepRow& row : rows) {
    table.AddRow({Sprintf("%.0f%%", row.threshold * 100.0),
                  std::to_string(row.false_positives),
                  std::to_string(row.true_positives)});
  }
  table.Print();
  std::printf("\n(Expected shape: FPs decay to 0 as t grows; TPs start dropping once "
              "t exceeds ~25%%, the optimum.)\n");
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)
