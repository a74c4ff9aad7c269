// Shared scaffolding for the experiment benches. Each bench binary runs one
// paper experiment through the parallel CampaignRunner and prints the
// paper-style table / series plus the experiment's wall-clock (and, on
// request, the speedup over a serial run — per-campaign results are
// bit-identical either way).
//
// Flags:
//   --jobs N              CampaignRunner worker threads (default 1)
//   --telemetry-out=PATH  write the campaign event stream (JSONL) to PATH
//   --metrics-summary     print the merged metrics registry after the run
//   --summary-json[=PATH] write the machine-readable metrics summary; the
//                         default path is BENCH_<bench name>.json
// Environment knobs:
//   THEMIS_BENCH_HOURS    virtual hours per campaign (default 24)
//   THEMIS_BENCH_SEEDS    repeated campaigns per (tool, flavor) (default 3)
//   THEMIS_BENCH_COMPARE_SERIAL=1  rerun with 1 job and report the speedup

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/strings.h"
#include "src/harness/experiments.h"
#include "src/harness/report.h"
#include "src/harness/telemetry_export.h"
#include "src/telemetry/metrics.h"

namespace themis {

// The flags above, set by InitBenchJobs.
struct BenchFlags {
  int jobs = 1;
  // argv[0] without its directory and "bench_" prefix ("table3_methods").
  std::string name = "bench";
  std::string telemetry_out;
  bool metrics_summary = false;
  std::string summary_json;
};
inline BenchFlags bench_flags;

inline ExperimentBudget BenchBudget() {
  ExperimentBudget budget;
  if (const char* hours = std::getenv("THEMIS_BENCH_HOURS")) {
    budget.campaign = Hours(std::max(1, std::atoi(hours)));
  }
  if (const char* seeds = std::getenv("THEMIS_BENCH_SEEDS")) {
    budget.seeds = std::max(1, std::atoi(seeds));
  }
  budget.jobs = bench_flags.jobs;
  budget.telemetry_out = bench_flags.telemetry_out;
  return budget;
}

// Parses the flags above; any other argument exits 2 with a usage line.
inline void InitBenchJobs(int argc, char** argv) {
  if (argc > 0) {
    std::string name = argv[0];
    size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) {
      name = name.substr(slash + 1);
    }
    if (name.rfind("bench_", 0) == 0) {
      name = name.substr(6);
    }
    if (!name.empty()) {
      bench_flags.name = name;
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      bench_flags.jobs = std::max(1, std::atoi(argv[++i]));
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      bench_flags.jobs = std::max(1, std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--telemetry-out=", 16) == 0) {
      bench_flags.telemetry_out = argv[i] + 16;
    } else if (std::strcmp(argv[i], "--telemetry-out") == 0 && i + 1 < argc) {
      bench_flags.telemetry_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-summary") == 0) {
      bench_flags.metrics_summary = true;
    } else if (std::strncmp(argv[i], "--summary-json=", 15) == 0) {
      bench_flags.summary_json = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--summary-json") == 0) {
      bench_flags.summary_json = "BENCH_" + bench_flags.name + ".json";
    } else {
      std::fprintf(stderr,
                   "unknown argument %s; usage: %s [--jobs N] [--telemetry-out=PATH] "
                   "[--metrics-summary] [--summary-json[=PATH]]\n",
                   argv[i], argv[0]);
      std::exit(2);
    }
  }
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

// Runs the experiment with the configured job count, reports wall-clock, and
// optionally (THEMIS_BENCH_COMPARE_SERIAL=1) reruns serially to print the
// measured speedup.
template <typename RunExperimentFn>
void RunTimedExperiment(RunExperimentFn&& run) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();
  run();
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("\n[experiment wall-clock: %.2fs with --jobs %d]\n", seconds,
              bench_flags.jobs);

  if (bench_flags.metrics_summary) {
    std::printf("\n%s", MetricsRegistry::Global().RenderSummary().c_str());
  }
  if (!bench_flags.summary_json.empty()) {
    Status write =
        WriteMetricsSummaryJson(bench_flags.name, seconds, bench_flags.summary_json);
    std::printf("[metrics summary: %s]\n",
                write.ok() ? bench_flags.summary_json.c_str()
                           : write.ToString().c_str());
  }

  const char* compare = std::getenv("THEMIS_BENCH_COMPARE_SERIAL");
  if (compare != nullptr && std::atoi(compare) != 0 && bench_flags.jobs > 1) {
    int parallel_jobs = bench_flags.jobs;
    bench_flags.jobs = 1;
    Clock::time_point serial_start = Clock::now();
    run();
    double serial_seconds =
        std::chrono::duration<double>(Clock::now() - serial_start).count();
    bench_flags.jobs = parallel_jobs;
    std::printf("\n[serial wall-clock: %.2fs; speedup with --jobs %d: %.2fx]\n",
                serial_seconds, parallel_jobs,
                seconds > 0.0 ? serial_seconds / seconds : 0.0);
  }
}

}  // namespace themis

// Standard main: the flags, then the timed experiment table.
#define THEMIS_BENCH_MAIN(RunExperimentFn)                   \
  int main(int argc, char** argv) {                          \
    ::themis::InitBenchJobs(argc, argv);                     \
    ::themis::RunTimedExperiment([] { RunExperimentFn(); }); \
    return 0;                                                \
  }

#endif  // BENCH_BENCH_COMMON_H_
