// Table 4: historical imbalance failures (the 53-bug study corpus) reproduced
// by each tool. Five of the 53 are environment-gated (Windows / specific
// hardware) and are out of reach for every tool, bounding Themis at 48/53.

#include "bench/bench_common.h"
#include "src/faults/historical_corpus.h"

namespace themis {
namespace {

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  std::vector<std::string> strategies(kComparedStrategies.begin(),
                                      kComparedStrategies.end());
  HistoricalFindings findings = RunHistoricalExperiment(strategies, budget);

  std::map<Flavor, int> corpus_sizes;
  for (Flavor flavor : kAllFlavors) {
    corpus_sizes[flavor] = static_cast<int>(HistoricalFaultsFor(flavor).size());
  }

  PrintHeader("Table 4: historical imbalance failures reproduced");
  TextTable table({"Tools", "HDFS", "CephFS", "GlusterFS", "LeoFS", "Total"});
  for (const std::string& strategy : strategies) {
    int total = 0;
    std::vector<std::string> row{strategy};
    for (Flavor flavor : kAllFlavors) {
      int found = static_cast<int>(findings.found[strategy][flavor].size());
      total += found;
      row.push_back(Sprintf("%d/%d", found, corpus_sizes[flavor]));
    }
    row.push_back(Sprintf("%d/53", total));
    table.AddRow(row);
  }
  table.Print();
  std::printf("\n(5 failures are Windows-only or hardware-gated and unreachable in "
              "this environment: CEPH-41935, HDFS-4261, CEPH-55568, GLUSTER-1699, "
              "HDFS-11741)\n");
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)
