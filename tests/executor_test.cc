// Tests for the test-case executor, the double-check protocol, and the
// Themis fuzzing loop.

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/strings.h"
#include "src/core/executor.h"
#include "src/core/fuzzer.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/injector.h"
#include "src/monitor/states_monitor.h"

namespace themis {
namespace {

FaultSpec InstantHotspot(double severity) {
  FaultSpec spec;
  spec.id = "hotspot";
  spec.platform = Flavor::kGluster;
  spec.type = FailureType::kImbalancedStorage;
  spec.effect = EffectKind::kPlanSkipsVictim;
  spec.severity = severity;
  spec.trigger.min_window_ops = 1;
  spec.trigger.probability = 1.0;
  return spec;
}

struct Rig {
  explicit Rig(std::vector<FaultSpec> faults, uint64_t seed = 7)
      : dfs(MakeCluster(Flavor::kGluster, seed)),
        coverage(FlavorBranchSpace(Flavor::kGluster), seed),
        injector(std::move(faults), seed),
        rng(seed),
        monitor(LoadVarianceWeights{}),
        detector(DetectorConfig{}),
        executor(*dfs, model, monitor, detector, &injector, &coverage, rng) {
    dfs->set_coverage(&coverage);
    dfs->set_fault_hooks(&injector);
  }

  std::unique_ptr<DfsCluster> dfs;
  CoverageRecorder coverage;
  FaultInjector injector;
  Rng rng;
  InputModel model;
  StatesMonitor monitor;
  ImbalanceDetector detector;
  TestCaseExecutor executor;
};

OpSeq CreateSeq(int count, uint64_t size, const std::string& prefix) {
  OpSeq seq;
  for (int i = 0; i < count; ++i) {
    Operation op;
    op.kind = OpKind::kCreate;
    op.path = "/" + prefix + std::to_string(i);
    op.size = size;
    seq.ops.push_back(op);
  }
  return seq;
}

TEST(Executor, SeedInitialDataPopulatesCluster) {
  Rig rig({});
  OpSeqGenerator generator(rig.model);
  rig.executor.SeedInitialData(generator, 40);
  EXPECT_GE(rig.dfs->tree().file_count(), 20u);
  EXPECT_EQ(rig.executor.total_ops(), 40u);
}

TEST(Executor, RunExecutesAndScores) {
  Rig rig({});
  OpSeqGenerator generator(rig.model);
  rig.executor.SeedInitialData(generator, 20);
  ExecOutcome outcome = rig.executor.Run(CreateSeq(4, kGiB, "exec_"));
  EXPECT_EQ(outcome.ops_executed, 4);
  EXPECT_EQ(outcome.ops_ok, 4);
  EXPECT_GE(outcome.variance_score, 0.0);
  // Identical-shape creates may hit no new tuples, but the campaign so far
  // must have produced coverage.
  EXPECT_GT(rig.coverage.TotalHits(), 0u);
  EXPECT_TRUE(outcome.failures.empty());
}

TEST(Executor, HealthyImbalanceIsNotConfirmed) {
  // Drive a healthy cluster hard; every candidate must be filtered by the
  // rebalance double-check (no false positives at t = 25%).
  Rig rig({});
  OpSeqGenerator generator(rig.model);
  rig.executor.SeedInitialData(generator, 40);
  InputModel& model = rig.model;
  OpSeqMutator mutator(model, generator);
  Rng rng(3);
  OpSeq seq = generator.Generate(rng, 8);
  for (int i = 0; i < 150; ++i) {
    ExecOutcome outcome = rig.executor.Run(seq);
    EXPECT_TRUE(outcome.failures.empty()) << "false positive on a healthy cluster";
    seq = mutator.Mutate(seq, rng);
  }
}

TEST(Executor, ActiveFaultIsConfirmedAndLabeled) {
  Rig rig({InstantHotspot(0.45)});
  OpSeqGenerator generator(rig.model);
  rig.executor.SeedInitialData(generator, 40);
  std::vector<FailureReport> confirmed;
  for (int i = 0; i < 120 && confirmed.empty(); ++i) {
    ExecOutcome outcome = rig.executor.Run(CreateSeq(6, 2 * kGiB, Sprintf("r%d_", i)));
    confirmed = outcome.failures;
  }
  ASSERT_FALSE(confirmed.empty()) << "the active fault was never confirmed";
  EXPECT_TRUE(confirmed.front().IsTruePositive());
  EXPECT_EQ(confirmed.front().DedupKey(), "hotspot");
  EXPECT_EQ(confirmed.front().dimension, ImbalanceDimension::kStorage);
  EXPECT_FALSE(confirmed.front().testcase.empty());
  // Confirmation resets the cluster.
  EXPECT_EQ(rig.dfs->tree().file_count(), 0u);
}

TEST(Executor, CrashFaultConfirmsViaNodeHealth) {
  FaultSpec crash;
  crash.id = "crash";
  crash.platform = Flavor::kGluster;
  crash.type = FailureType::kCrash;
  crash.effect = EffectKind::kCrashNode;
  crash.trigger.min_window_ops = 1;
  crash.trigger.probability = 1.0;
  Rig rig({crash});
  OpSeqGenerator generator(rig.model);
  rig.executor.SeedInitialData(generator, 10);
  ExecOutcome outcome = rig.executor.Run(CreateSeq(2, kGiB, "c"));
  ASSERT_FALSE(outcome.failures.empty());
  EXPECT_EQ(outcome.failures.front().dimension, ImbalanceDimension::kNodeHealth);
}

// Watches the double-check's probe bursts through the fault hooks: a burst
// is the run of mkdirs up to the cleanup's first rmdir (the test cases below
// create only files, and the model knows no directory but the root). Until
// one double-check has probed twice before its cleanup, the end of each
// first burst skews one brick onto another and starts a rebalance round, so
// a DoubleCheck finds migration running under its burst and probes again.
class ProbeWatch : public FaultHooks {
 public:
  static constexpr int kBurstOps = 64;  // TestCaseExecutor::kProbeOps

  void OnOperationExecuted(DfsCluster& dfs, const Operation& op,
                           const OpResult& result) override {
    const size_t table_size = dfs.tree().table().size();
    if (op.kind == OpKind::kMkdir) {
      if (outstanding == 0) {
        table_at_burst = table_before;
      }
      ++outstanding;
      failed_mkdirs += result.status.ok() ? 0 : 1;
      max_outstanding = std::max(max_outstanding, outstanding);
      if (outstanding == kBurstOps && max_outstanding <= kBurstOps) {
        const std::vector<BrickId>& bricks = dfs.ServingBricks();
        (void)dfs.SkewBytes(bricks[1], bricks[0], 240 * kGiB);
        (void)dfs.TriggerRebalance();
      }
    } else if (op.kind == OpKind::kRmdir && outstanding > 0) {
      interned.push_back(table_before - table_at_burst);
      outstanding = 0;
    }
    table_before = table_size;
  }
  void OnClusterReset(DfsCluster& dfs) override {
    (void)dfs;
    ++resets;
  }

  int outstanding = 0;      // probe mkdirs since the last cleanup
  int max_outstanding = 0;
  int failed_mkdirs = 0;
  int resets = 0;
  // Path-table nodes each burst (or pair of bursts) interned.
  std::vector<size_t> interned;

 private:
  size_t table_before = 0;  // the table's size before the current op
  size_t table_at_burst = 0;
};

// Probe dirs take slot names, so a burst under known parents reuses the
// names earlier bursts interned, and the second burst of a double-check
// takes the slots after the first's instead of colliding with them.
TEST(Executor, ProbeBurstsReuseSlotNames) {
  Rig rig({});
  ProbeWatch watch;
  rig.dfs->set_fault_hooks(&watch);
  OpSeqGenerator generator(rig.model);
  rig.executor.SeedInitialData(generator, 40);
  for (int i = 0; i < 80; ++i) {
    (void)rig.executor.Run(CreateSeq(4, 2 * kGiB, Sprintf("s%d_", i)));
  }
  ASSERT_EQ(watch.resets, 0) << "a reset would restart the path table";
  ASSERT_GE(watch.interned.size(), 10u) << "too few double-checks ran";
  EXPECT_GT(watch.max_outstanding, ProbeWatch::kBurstOps)
      << "no double-check probed twice before its cleanup";
  EXPECT_EQ(watch.failed_mkdirs, 0);
  size_t total = 0;
  for (size_t nodes : watch.interned) {
    total += nodes;
  }
  // Two bursts under the root intern at most 2 x 64 slot names, once.
  EXPECT_LE(total, 2u * ProbeWatch::kBurstOps);
  EXPECT_EQ(watch.interned.back(), 0u);
}

// ---- fuzzer ----

TEST(Fuzzer, GeneratesWithinBounds) {
  Rig rig({});
  Rng rng(11);
  FuzzerConfig config;
  config.initial_seeds = 4;
  ThemisFuzzer fuzzer(rig.model, rng, config);
  rig.model.SyncFromDfs(*rig.dfs);
  for (int i = 0; i < 100; ++i) {
    OpSeq seq = fuzzer.Next();
    EXPECT_GE(seq.size(), 1u);
    EXPECT_LE(seq.size(), 8u);
    ExecOutcome outcome;
    fuzzer.OnOutcome(seq, outcome);
  }
}

TEST(Fuzzer, RetainsVarianceGainingSeeds) {
  Rig rig({});
  Rng rng(12);
  FuzzerConfig config;
  config.initial_seeds = 1;
  ThemisFuzzer fuzzer(rig.model, rng, config);
  rig.model.SyncFromDfs(*rig.dfs);
  (void)fuzzer.Next();
  OpSeq gaining;
  gaining.ops.resize(2);
  ExecOutcome gain;
  gain.variance_score = 0.3;
  gain.variance_gain = 0.2;
  fuzzer.OnOutcome(gaining, gain);
  EXPECT_EQ(fuzzer.pool().size(), 1u);
  // Unproductive outcomes are not pooled.
  ExecOutcome flat;
  fuzzer.OnOutcome(gaining, flat);
  EXPECT_EQ(fuzzer.pool().size(), 1u);
}

TEST(Fuzzer, ClimbsOnGainAndStopsOnFailure) {
  Rig rig({});
  Rng rng(13);
  FuzzerConfig config;
  config.initial_seeds = 1;
  ThemisFuzzer fuzzer(rig.model, rng, config);
  rig.model.SyncFromDfs(*rig.dfs);
  (void)fuzzer.Next();
  OpSeq seed = CreateSeq(4, kGiB, "x");
  ExecOutcome gain;
  gain.variance_score = 0.3;
  gain.variance_gain = 0.2;
  fuzzer.OnOutcome(seed, gain);
  // While climbing, Next() produces light variations of the seed: same
  // length +/- 1 and mostly identical operators.
  OpSeq next = fuzzer.Next();
  EXPECT_GE(next.size(), seed.size() - 1);
  EXPECT_LE(next.size(), seed.size() + 1);
  // A confirmed failure (cluster reset) ends the climb.
  ExecOutcome failed = gain;
  FailureReport report;
  failed.failures.push_back(report);
  fuzzer.OnOutcome(next, failed);
  // No crash; next test case still valid.
  EXPECT_GE(fuzzer.Next().size(), 1u);
}

}  // namespace
}  // namespace themis
