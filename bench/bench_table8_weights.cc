// Table 8: average time for Themis to trigger the storage-type imbalance
// failures under different storage-variance weighting factors (§7).

#include "bench/bench_common.h"

namespace themis {
namespace {

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  std::vector<double> weights = {1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0, 2.0 / 3.0, 1.0};
  std::vector<WeightSweepRow> rows = RunWeightSweep(weights, budget);

  PrintHeader("Table 8: time to trigger storage imbalances vs storage weight");
  TextTable table({"Weighting factor of storage load", "Avg time to trigger (min)",
                   "Storage bugs found"});
  const char* labels[] = {"1/6", "1/3", "1/2", "2/3", "1/1"};
  for (size_t i = 0; i < rows.size(); ++i) {
    table.AddRow({labels[i],
                  rows[i].mean_trigger_minutes < 0
                      ? "-"
                      : Sprintf("%.0f", rows[i].mean_trigger_minutes),
                  std::to_string(rows[i].storage_bugs_found)});
  }
  table.Print();
  std::printf("\n(Expected shape: heavier storage weighting accelerates triggering of "
              "storage-type failures.)\n");
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)
