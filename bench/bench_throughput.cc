// Raw execution throughput of the simulated cluster — the quantity every
// campaign result scales with (more executed opSeqs per wall-second = more
// imbalance failures found per 24-hour budget).
//
// Two layers are measured, per flavor, on the paper's default 10-node
// topology (8 storage + 2 meta):
//   * ops/sec      — DfsCluster::Execute driven by the real op source
//                    (InputModel + OpSeqGenerator) with coverage recording
//                    attached, i.e. the fuzzing loop's hot path.
//   * testcases/sec — full Campaign::Run (generation, mutation, detection,
//                    fault injection) over a 1-virtual-hour budget.
//
// `--summary-json` writes BENCH_throughput.json with one gauge per series
// (throughput.<flavor>.ops_per_sec, .testcases_per_sec, .campaign_ops_per_sec)
// so CI can track the perf trajectory across PRs.
//
// A third axis sweeps GeoFS across node counts (10/100/1k/10k) to show the
// sparse hierarchical aggregates keep the per-op cost flat at production
// scale; see RunScaleSweepExperiment below and DESIGN.md §15.

#include "bench/bench_common.h"

#include <chrono>
#include <memory>
#include <vector>

#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/coverage/coverage.h"
#include "src/dfs/flavors/factory.h"
#include "src/harness/campaign.h"

namespace themis {
namespace {

constexpr Flavor kFlavors[] = {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph,
                               Flavor::kLeo, Flavor::kGeo};

// One op off the same generation path the fuzzer uses; the model re-syncs
// its admin views periodically, like the campaign's executor does.
struct OpSource {
  explicit OpSource(DfsCluster& dfs, uint64_t seed)
      : cluster(dfs), generator(model), rng(seed) {
    model.SyncFromDfs(dfs);
  }

  Operation Next() {
    if (++since_sync >= 64) {
      since_sync = 0;
      model.SyncFromDfs(cluster);
    }
    return generator.GenerateOp(rng);
  }

  DfsCluster& cluster;
  InputModel model;
  OpSeqGenerator generator;
  Rng rng;
  int since_sync = 0;
};

void BM_ClusterExecute(benchmark::State& state) {
  Flavor flavor = kFlavors[state.range(0)];
  std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, /*seed=*/42);
  CoverageRecorder coverage(FlavorBranchSpace(flavor), /*seed=*/42);
  dfs->set_coverage(&coverage);
  OpSource source(*dfs, /*seed=*/42);
  for (auto _ : state) {
    Operation op = source.Next();
    OpResult result = dfs->Execute(op);
    benchmark::DoNotOptimize(result.status);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(FlavorName(flavor)));
}
BENCHMARK(BM_ClusterExecute)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

void BM_SampleLoad(benchmark::State& state) {
  Flavor flavor = kFlavors[state.range(0)];
  std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, /*seed=*/42);
  OpSource source(*dfs, /*seed=*/42);
  for (int i = 0; i < 512; ++i) {
    (void)dfs->Execute(source.Next());
  }
  for (auto _ : state) {
    std::vector<LoadSample> samples = dfs->SampleLoad();
    benchmark::DoNotOptimize(samples.data());
  }
  state.SetLabel(std::string(FlavorName(flavor)));
}
BENCHMARK(BM_SampleLoad)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void RecordSeries(const char* flavor_name, const char* series, double value) {
  MetricsRegistry::Global()
      .GetGauge(Sprintf("throughput.%s.%s", flavor_name, series))
      .Add(static_cast<int64_t>(value));
}

// Production-scale sweep (DESIGN.md §15): GeoFS at 10 / 100 / 1k / 10k
// storage nodes. The sparse per-group aggregates make the per-op cost O(1)
// in total node count, so ops/sec should hold roughly flat across three
// orders of magnitude; campaigns run at every size except 10k, which stays
// hot-loop-only (a 10k-node campaign belongs in an overnight run, not a CI
// bench). Gauges land under scale.GeoFS.n<N>.* — skipped by the perf gate's
// series filter, tracked for trend.
void RunScaleSweepExperiment() {
  PrintHeader("GeoFS node-count sweep (sparse hierarchical aggregates)");
  std::printf("%-10s %14s %18s\n", "nodes", "ops/sec", "campaign ops/sec");

  const int kSweepNodes[] = {10, 100, 1000, 10000};
  for (int nodes : kSweepNodes) {
    // Hot loop: same op source as the 10-node series, topology scaled up.
    const int hot_ops = nodes >= 10000 ? 10000 : 30000;
    std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGeo, /*seed=*/7, nodes);
    CoverageRecorder coverage(FlavorBranchSpace(Flavor::kGeo), /*seed=*/7);
    dfs->set_coverage(&coverage);
    OpSource source(*dfs, /*seed=*/7);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < hot_ops; ++i) {
      (void)dfs->Execute(source.Next());
    }
    double ops_per_sec = static_cast<double>(hot_ops) / SecondsSince(start);
    MetricsRegistry::Global()
        .GetGauge(Sprintf("scale.GeoFS.n%d.ops_per_sec", nodes))
        .Add(static_cast<int64_t>(ops_per_sec));

    double campaign_ops_per_sec = 0.0;
    if (nodes < 10000) {
      CampaignConfig config;
      config.flavor = Flavor::kGeo;
      config.seed = 7;
      // Default 24 virtual hours (THEMIS_BENCH_HOURS overrides): a campaign
      // this short would mostly measure cluster construction, not the
      // steady-state per-op cost the sweep is after.
      config.budget = BenchBudget().campaign;
      config.storage_nodes = nodes;
      start = std::chrono::steady_clock::now();
      Result<CampaignResult> result = Campaign(config).Run("Themis");
      double seconds = SecondsSince(start);
      if (result.ok()) {
        campaign_ops_per_sec = static_cast<double>(result->total_ops) / seconds;
        MetricsRegistry::Global()
            .GetGauge(Sprintf("scale.GeoFS.n%d.campaign_ops_per_sec", nodes))
            .Add(static_cast<int64_t>(campaign_ops_per_sec));
      } else {
        std::printf("scale campaign failed at %d nodes: %s\n", nodes,
                    result.status().ToString().c_str());
      }
    } else {
      // Explicit skip marker: the perf-gate script treats a scale row with
      // ops_per_sec but neither campaign_ops_per_sec nor this marker as a
      // malformed bench document, so a silently dropped campaign leg can't
      // masquerade as an intentional skip.
      MetricsRegistry::Global()
          .GetGauge(Sprintf("scale.GeoFS.n%d.campaign_skipped", nodes))
          .Add(1);
    }
    if (nodes < 10000) {
      std::printf("%-10d %14.0f %18.0f\n", nodes, ops_per_sec, campaign_ops_per_sec);
    } else {
      std::printf("%-10d %14.0f %18s\n", nodes, ops_per_sec, "(bench-only)");
    }
  }
}

void RunThroughputExperiment() {
  PrintHeader("Execution throughput (default 10-node topology)");
  std::printf("%-12s %14s %16s %18s\n", "flavor", "ops/sec", "testcases/sec",
              "campaign ops/sec");

  const int kHotLoopOps = 30000;
  for (Flavor flavor : kFlavors) {
    std::string flavor_name(FlavorName(flavor));

    // Layer 1: the raw cluster hot path, coverage attached.
    std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, /*seed=*/7);
    CoverageRecorder coverage(FlavorBranchSpace(flavor), /*seed=*/7);
    dfs->set_coverage(&coverage);
    OpSource source(*dfs, /*seed=*/7);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kHotLoopOps; ++i) {
      (void)dfs->Execute(source.Next());
    }
    double hot_seconds = SecondsSince(start);
    double ops_per_sec = static_cast<double>(kHotLoopOps) / hot_seconds;

    // Layer 2: the full campaign loop at a 1-virtual-hour budget.
    CampaignConfig config;
    config.flavor = flavor;
    config.seed = 7;
    config.budget = Hours(1);
    Campaign campaign(config);
    start = std::chrono::steady_clock::now();
    Result<CampaignResult> result = campaign.Run("Themis");
    double campaign_seconds = SecondsSince(start);
    double testcases_per_sec = 0.0;
    double campaign_ops_per_sec = 0.0;
    if (result.ok()) {
      testcases_per_sec = static_cast<double>(result->testcases) / campaign_seconds;
      campaign_ops_per_sec =
          static_cast<double>(result->total_ops) / campaign_seconds;
    } else {
      std::printf("campaign failed for %s: %s\n", flavor_name.c_str(),
                  result.status().ToString().c_str());
    }

    RecordSeries(flavor_name.c_str(), "ops_per_sec", ops_per_sec);
    RecordSeries(flavor_name.c_str(), "testcases_per_sec", testcases_per_sec);
    RecordSeries(flavor_name.c_str(), "campaign_ops_per_sec", campaign_ops_per_sec);
    std::printf("%-12s %14.0f %16.1f %18.0f\n", flavor_name.c_str(), ops_per_sec,
                testcases_per_sec, campaign_ops_per_sec);
  }

  RunScaleSweepExperiment();
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunThroughputExperiment)
