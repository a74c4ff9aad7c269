// Figure 2: per-node storage utilization while reproducing a
// GlusterFS-3356-style imbalance failure — the gradual accumulation of load
// variance until one node becomes a hotspot and the failure is confirmed.

#include <algorithm>

#include "bench/bench_common.h"

namespace themis {
namespace {

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  AccumulationTrace trace;
  uint64_t seed = budget.base_seed;
  for (int attempt = 0; attempt < 8 && !trace.failure_confirmed; ++attempt) {
    trace = RunAccumulationTrace(seed + static_cast<uint64_t>(attempt),
                                 budget.campaign);
  }

  PrintHeader("Figure 2: storage status of each node during bug reproduction");
  if (!trace.failure_confirmed) {
    std::printf("no storage failure was confirmed within the budget; raise "
                "THEMIS_BENCH_HOURS\n");
    return;
  }
  std::printf("storage imbalance failure confirmed at t=%.1f virtual minutes\n\n",
              ToMinutes(trace.confirmed_at));

  // Print a decimated matrix: rows = sample minutes, columns = nodes present
  // at the end of the trace, final column = max variance line.
  std::vector<NodeId> nodes;
  for (const auto& [node, series] : trace.node_series) {
    if (!series.empty() &&
        series.back().first + 2.0 >= ToMinutes(trace.confirmed_at) - 1e9) {
      nodes.push_back(node);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  std::printf("%-8s", "minute");
  for (NodeId node : nodes) {
    std::printf(" node%-4u", node);
  }
  std::printf(" max-spread\n");
  size_t points = trace.max_variance_series.size();
  size_t step = std::max<size_t>(1, points / 24);
  for (size_t i = 0; i < points; i += step) {
    double minute = trace.max_variance_series[i].first;
    std::printf("%-8.0f", minute);
    for (NodeId node : nodes) {
      const auto& series = trace.node_series[node];
      double value = 0.0;
      for (const auto& [m, frac] : series) {
        if (m <= minute + 1e-9) {
          value = frac;
        } else {
          break;
        }
      }
      std::printf(" %7.1f%%", 100.0 * value);
    }
    std::printf(" %9.1f%%\n", 100.0 * trace.max_variance_series[i].second);
  }
  std::printf("\n(The spread between the hottest node and the fleet grows through many "
              "small increments until the hotspot forms — Finding 6.)\n");
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)
