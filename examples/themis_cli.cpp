// Command-line front end for the framework: run fuzzing campaigns and replay
// reproduction logs without writing any C++.
//
//   themis_cli fuzz   <hdfs|ceph|gluster|leo|geo> [options]
//   themis_cli replay <hdfs|ceph|gluster|leo|geo> <logfile> [--repeat N] [--bugs]
//
// Options for `fuzz` (runs a CampaignMatrix through the parallel runner):
//   --hours H       virtual campaign budget (default 24)
//   --seed S        matrix seed (default 1); per-campaign seeds are
//                   deterministic RNG streams split off it
//   --seeds N       repeated campaigns (default 1)
//   --jobs N        worker threads; results are identical for every N
//   --strategy X    a registered strategy: themis | themis- | fixreq |
//                   fixconf | alternate | concurrent, or any registry name
//   --threshold T   detector threshold t, e.g. 0.25
//   --historical    inject the 53-bug historical corpus instead of the 10 new bugs
//   --healthy       inject nothing (false-positive soak test)
//   --transition-weight W  seed energy per newly covered balancer
//                   state-machine transition pair (default 0)
//   --logs          write each confirmed failure's reproduction log to stdout
//   --telemetry-out=PATH  write the campaign event stream (JSONL) to PATH;
//                   event lines are byte-identical for every --jobs value
//   --checkpoint-dir=DIR  snapshot campaign state into DIR (DESIGN.md §11)
//   --checkpoint-every-ops N  mid-campaign snapshot cadence in executed ops
//                   (0 = only the final snapshot); requires --checkpoint-dir
//   --resume        continue from the newest valid snapshot in DIR; a
//                   resumed campaign is bit-identical to an uninterrupted one
//   --summary-json=PATH   write the deterministic per-job summary (digests,
//                   result counters, no wall-clock fields) to PATH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/log.h"
#include "src/core/replay.h"
#include "src/faults/fault_registry.h"
#include "src/faults/injector.h"
#include "src/core/strategy_registry.h"
#include "src/harness/report.h"
#include "src/harness/runner.h"

namespace {

using namespace themis;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  themis_cli fuzz <hdfs|ceph|gluster|leo|geo> [--hours H] [--seed S]\n"
               "             [--seeds N] [--jobs N]\n"
               "             [--strategy themis|themis-|fixreq|fixconf|alternate|\n"
               "              concurrent] [--threshold T] [--historical]\n"
               "             [--healthy] [--transition-weight W] [--logs]\n"
               "             [--telemetry-out=PATH] [--checkpoint-dir=DIR]\n"
               "             [--checkpoint-every-ops N] [--resume]\n"
               "             [--summary-json=PATH]\n"
               "          (--transition-weight blends balancer state-machine\n"
               "           coverage into seed energy)\n"
               "  themis_cli replay <hdfs|ceph|gluster|leo|geo> <logfile> [--repeat N] [--bugs]\n"
               "          (--bugs re-injects the Table 2 faults: reproduction against\n"
               "           the buggy system, as in the paper's replay step)\n");
  return 2;
}

bool ParseFlavor(const char* text, Flavor* out) {
  if (std::strcmp(text, "hdfs") == 0) {
    *out = Flavor::kHdfs;
  } else if (std::strcmp(text, "ceph") == 0) {
    *out = Flavor::kCeph;
  } else if (std::strcmp(text, "gluster") == 0) {
    *out = Flavor::kGluster;
  } else if (std::strcmp(text, "leo") == 0) {
    *out = Flavor::kLeo;
  } else if (std::strcmp(text, "geo") == 0) {
    *out = Flavor::kGeo;
  } else {
    return false;
  }
  return true;
}

// Maps the CLI spellings to registry names; a registry name itself (e.g.
// "Fix_req") passes through unchanged.
bool ParseStrategy(const char* text, std::string* out) {
  if (std::strcmp(text, "themis") == 0) {
    *out = "Themis";
  } else if (std::strcmp(text, "themis-") == 0) {
    *out = "Themis-";
  } else if (std::strcmp(text, "fixreq") == 0) {
    *out = "Fix_req";
  } else if (std::strcmp(text, "fixconf") == 0) {
    *out = "Fix_conf";
  } else if (std::strcmp(text, "alternate") == 0) {
    *out = "Alternate";
  } else if (std::strcmp(text, "concurrent") == 0) {
    *out = "Concurrent";
  } else if (StrategyRegistry::Instance().Contains(text)) {
    *out = text;
  } else {
    return false;
  }
  return true;
}

int RunFuzz(int argc, char** argv) {
  if (argc < 1) {
    return Usage();
  }
  Flavor flavor;
  if (!ParseFlavor(argv[0], &flavor)) {
    return Usage();
  }
  CampaignMatrix matrix;
  matrix.flavors = {flavor};
  std::string strategy = "Themis";
  int jobs = 1;
  bool print_logs = false;
  std::string telemetry_out;
  std::string summary_json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
      matrix.base.budget = Hours(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      matrix.matrix_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      matrix.seeds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      matrix.base.threshold_t = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--transition-weight") == 0 && i + 1 < argc) {
      matrix.base.transition_weight = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--transition-weight=", 20) == 0) {
      matrix.base.transition_weight = std::atof(argv[i] + 20);
    } else if (std::strcmp(argv[i], "--strategy") == 0 && i + 1 < argc) {
      if (!ParseStrategy(argv[++i], &strategy)) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--historical") == 0) {
      matrix.base.fault_set = FaultSet::kHistorical;
    } else if (std::strcmp(argv[i], "--healthy") == 0) {
      matrix.base.fault_set = FaultSet::kNone;
    } else if (std::strcmp(argv[i], "--logs") == 0) {
      print_logs = true;
    } else if (std::strncmp(argv[i], "--telemetry-out=", 16) == 0) {
      telemetry_out = argv[i] + 16;
    } else if (std::strcmp(argv[i], "--telemetry-out") == 0 && i + 1 < argc) {
      telemetry_out = argv[++i];
    } else if (std::strncmp(argv[i], "--checkpoint-dir=", 17) == 0) {
      matrix.base.checkpoint_dir = argv[i] + 17;
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
      matrix.base.checkpoint_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-every-ops") == 0 && i + 1 < argc) {
      matrix.base.checkpoint_every_ops = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--checkpoint-every-ops=", 23) == 0) {
      matrix.base.checkpoint_every_ops = std::strtoull(argv[i] + 23, nullptr, 10);
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      matrix.base.resume = true;
    } else if (std::strncmp(argv[i], "--summary-json=", 15) == 0) {
      summary_json = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--summary-json") == 0 && i + 1 < argc) {
      summary_json = argv[++i];
    } else {
      return Usage();
    }
  }
  // The CLI sets no sweep axis: every job runs matrix.base with its own seed
  // and flavor, so one check covers them all.
  if (Status valid = matrix.base.Validate(); !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  matrix.strategies = {strategy};
  if (matrix.seeds < 1) {
    std::fprintf(stderr, "--seeds must be >= 1\n");
    return 2;
  }

  SetLogLevel(LogLevel::kInfo);
  RunnerOptions options;
  options.jobs = jobs;
  options.telemetry_out = telemetry_out;
  options.summary_json = summary_json;
  MatrixResult result = CampaignRunner(options).Run(matrix);

  std::printf("\n=== %s on %s (%lld virtual hours, t=%.0f%%, %d campaign%s on "
              "%d thread%s, %.2fs wall) ===\n",
              strategy.c_str(), std::string(FlavorName(flavor)).c_str(),
              static_cast<long long>(matrix.base.budget / Hours(1)),
              matrix.base.threshold_t * 100.0, matrix.seeds,
              matrix.seeds == 1 ? "" : "s", result.threads,
              result.threads == 1 ? "" : "s", result.wall_seconds);

  bool any_ok = false;
  TextTable jobs_table({"Seed rep", "Test cases", "Ops", "Coverage", "Distinct",
                        "FPs", "Digest", "Wall (s)"});
  for (const JobResult& job : result.jobs) {
    if (!job.status.ok()) {
      std::fprintf(stderr, "campaign %d failed: %s\n", job.job.repetition,
                   job.status.ToString().c_str());
      continue;
    }
    any_ok = true;
    jobs_table.AddRow({std::to_string(job.job.repetition),
                       std::to_string(job.result.testcases),
                       std::to_string(job.result.total_ops),
                       std::to_string(job.result.final_coverage),
                       std::to_string(job.result.DistinctTruePositives()),
                       std::to_string(job.result.false_positives),
                       Sprintf("%016llx", static_cast<unsigned long long>(
                                              job.result.Digest())),
                       Sprintf("%.2f", job.wall_seconds)});
  }
  if (!any_ok) {
    return 1;
  }
  jobs_table.Print();

  const MatrixRollup& rollup = result.overall;
  std::printf("union: distinct failures %d | false positives %d | total ops %llu\n",
              rollup.DistinctTruePositives(), rollup.false_positives,
              static_cast<unsigned long long>(rollup.total_ops));
  if (!rollup.distinct_failures.empty()) {
    TextTable table({"Failure", "First confirmed (virtual min)"});
    for (const auto& [id, at] : rollup.distinct_failures) {
      table.AddRow({id, Sprintf("%.1f", ToMinutes(at))});
    }
    table.Print();
  }
  if (print_logs) {
    for (const JobResult& job : result.jobs) {
      if (!job.status.ok()) {
        continue;
      }
      for (const FailureReport& report : job.result.reports) {
        if (report.IsTruePositive()) {
          std::printf("\n# reproduction log for %s (%s imbalance, ratio %.2f)\n%s",
                      report.DedupKey().c_str(),
                      ImbalanceDimensionName(report.dimension), report.ratio,
                      FormatReproductionLog(report.testcase).c_str());
        }
      }
    }
  }
  return 0;
}

int RunReplay(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  Flavor flavor;
  if (!ParseFlavor(argv[0], &flavor)) {
    return Usage();
  }
  std::ifstream file(argv[1]);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  int repetitions = 1;
  bool with_bugs = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repetitions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--bugs") == 0) {
      with_bugs = true;
    } else {
      return Usage();
    }
  }
  Result<OpSeq> seq = ParseReproductionLog(buffer.str());
  if (!seq.ok()) {
    std::fprintf(stderr, "parse error: %s\n", seq.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, /*seed=*/1);
  std::unique_ptr<FaultInjector> injector;
  if (with_bugs) {
    injector = std::make_unique<FaultInjector>(NewBugsFor(flavor), /*seed=*/1);
    dfs->set_fault_hooks(injector.get());
  }
  ReplayOutcome outcome = ReplayLog(*dfs, *seq, repetitions);
  if (injector != nullptr && !injector->ActiveFaultIds().empty()) {
    std::printf("faults triggered during replay:");
    for (const std::string& id : injector->ActiveFaultIds()) {
      std::printf(" %s", id.c_str());
    }
    std::printf("\n");
  }
  std::printf("replayed %d operations (%d ok, %d repetitions)\n", outcome.ops_executed,
              outcome.ops_ok, repetitions);
  std::printf("residual imbalance after rebalance: %.1f%%%s\n",
              100.0 * outcome.residual_imbalance,
              outcome.any_node_crashed ? " (a node crashed)" : "");
  std::printf(outcome.residual_imbalance > 0.25 || outcome.any_node_crashed
                  ? "=> imbalance failure REPRODUCED\n"
                  : "=> system returned to a balanced state\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  if (std::strcmp(argv[1], "fuzz") == 0) {
    return RunFuzz(argc - 2, argv + 2);
  }
  if (std::strcmp(argv[1], "replay") == 0) {
    return RunReplay(argc - 2, argv + 2);
  }
  return Usage();
}
