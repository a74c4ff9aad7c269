// Adapting Themis to a new distributed file system (§5 "Adaption to New
// Distributed File Systems").
//
// The paper's claim: only the Interaction Adaptor needs work — an
// `operation.send()` path and a `LoadMonitor()` path. In this code base that
// means implementing the flavor extension points of DfsCluster: `PlaceChunk`,
// an optional `HomeBrick` (where hash placement says a chunk belongs) and the
// flavor's own planning step. Everything else is inherited: request handling,
// load accounting, the rebalance APIs, sampling, and the rebalance plan's
// homing and leveling passes. This example builds a deliberately naive
// "RoundRobinFS" — placement ignores load entirely, and nothing pins a chunk
// to a home — and lets Themis loose on it. Round-robin placement plus file
// deletions skews storage quickly, so Themis's detector should flag
// imbalances that the (correct) leveling rebalancer then fixes: candidates,
// but no confirmed failures.
//
//   ./build/examples/custom_dfs_adapter [virtual_minutes] [seed]

#include <cstdio>
#include <cstdlib>

#include "src/core/executor.h"
#include "src/core/fuzzer.h"
#include "src/dfs/cluster.h"
#include "src/monitor/states_monitor.h"

namespace {

using namespace themis;

// The complete adaptor: ~40 lines for a from-scratch DFS.
class RoundRobinFs : public DfsCluster {
 public:
  explicit RoundRobinFs(uint64_t seed) : DfsCluster(Config(seed), Flavor::kCustom,
                                                    "round-robin-fs") {
    BuildInitialTopology();
  }

 protected:
  ReplicaSet PlaceChunk(const std::string& path, uint32_t chunk_index,
                        uint64_t bytes) override {
    (void)path;
    (void)chunk_index;
    // Strictly cyclic placement, blind to load — the simplest possible DFS.
    const std::vector<BrickId>& serving = ServingBricks();
    ReplicaSet chosen;
    for (size_t probe = 0; probe < serving.size() && chosen.size() < kReplication; ++probe) {
      BrickId candidate = serving[(cursor_ + probe) % serving.size()];
      if (FindBrick(candidate)->FreeBytes() >= bytes) {
        chosen.push_back(candidate);
      }
    }
    ++cursor_;
    return chosen;
  }

  // No planning step of its own: the base's leveler does the whole plan.
  bool BuildRebalancePlan(MigrationPlan& /*plan*/) override { return true; }

 private:
  static ClusterConfig Config(uint64_t seed) {
    ClusterConfig config;
    config.rng_seed = seed;
    config.native_threshold = 0.15;
    config.balancer_period = Minutes(3);
    return config;
  }

  size_t cursor_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int minutes = argc > 1 ? std::atoi(argv[1]) : 240;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  std::printf("Fuzzing RoundRobinFS (a user-written DFS) with Themis for %d virtual "
              "minutes...\n", minutes);

  RoundRobinFs dfs(seed);
  CoverageRecorder coverage(FlavorBranchSpace(Flavor::kCustom), seed);
  dfs.set_coverage(&coverage);

  Rng rng(seed * 31 + 1);
  InputModel model;
  StatesMonitor monitor(LoadVarianceWeights{});
  ImbalanceDetector detector(DetectorConfig{});
  // No fault injector: this system's only "bugs" are whatever its own
  // placement/rebalance logic genuinely does.
  TestCaseExecutor executor(dfs, model, monitor, detector, /*ground_truth=*/nullptr,
                            &coverage, rng);
  ThemisFuzzer fuzzer(model, rng);
  OpSeqGenerator init(model);
  executor.SeedInitialData(init, 50);

  int confirmed = 0;
  while (dfs.Now() < Minutes(minutes)) {
    OpSeq testcase = fuzzer.Next();
    ExecOutcome outcome = executor.Run(testcase);
    fuzzer.OnOutcome(testcase, outcome);
    confirmed += static_cast<int>(outcome.failures.size());
  }

  std::printf("\n=== results ===\n");
  std::printf("operations executed      : %llu\n",
              static_cast<unsigned long long>(executor.total_ops()));
  std::printf("imbalance candidates     : %d\n", executor.candidates_raised());
  std::printf("confirmed failures       : %d\n", confirmed);
  std::printf("branches covered         : %zu\n", coverage.TotalHits());
  std::printf("\nRound-robin placement drifts out of balance constantly (many "
              "candidates), but the leveling rebalancer recovers it, so the "
              "double-check filters the reports: candidates > 0, confirmed == 0 "
              "is the expected healthy outcome.\n");
  return confirmed == 0 ? 0 : 1;
}
