// Shared scaffolding for the experiment benches. Each bench binary runs one
// paper experiment through the parallel CampaignRunner and prints the
// paper-style table / series plus the experiment's wall-clock (per-campaign
// results are bit-identical for any job count).
//
// Flags:
//   --jobs N              CampaignRunner worker threads (default 1)
//   --telemetry-out=PATH  write the campaign event stream (JSONL) to PATH
// Environment knobs:
//   THEMIS_BENCH_HOURS    virtual hours per campaign (default 24)
//   THEMIS_BENCH_SEEDS    repeated campaigns per (tool, flavor) (default 3)

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

namespace themis {

// The flags above, set by InitBenchJobs.
struct BenchFlags {
  int jobs = 1;
  std::string telemetry_out;
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      bench_flags.jobs = std::max(1, std::atoi(argv[++i]));
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      bench_flags.jobs = std::max(1, std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--telemetry-out=", 16) == 0) {
      bench_flags.telemetry_out = argv[i] + 16;
    } else if (std::strcmp(argv[i], "--telemetry-out") == 0 && i + 1 < argc) {
      bench_flags.telemetry_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "unknown argument %s; usage: %s [--jobs N] [--telemetry-out=PATH]\n",
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

// Runs the experiment with the configured job count and reports wall-clock.
template <typename RunExperimentFn>
void RunTimedExperiment(RunExperimentFn&& run) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();
  run();
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("\n[experiment wall-clock: %.2fs with --jobs %d]\n", seconds,
              bench_flags.jobs);
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
