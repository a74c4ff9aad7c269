// Unit tests for the load variance model, the states monitor and the
// imbalance detector.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/bytes.h"
#include "src/monitor/detector.h"
#include "src/monitor/load_model.h"
#include "src/monitor/states_monitor.h"

namespace themis {
namespace {

LoadSample StorageSample(NodeId node, uint64_t used, uint64_t capacity,
                         double cpu = 0.0, uint64_t net = 0) {
  LoadSample sample;
  sample.node = node;
  sample.is_storage = true;
  sample.used_bytes = used;
  sample.capacity_bytes = capacity;
  sample.cpu_seconds = cpu;
  sample.requests = net;
  return sample;
}

LoadSample MetaSample(NodeId node, uint64_t requests, double cpu) {
  LoadSample sample;
  sample.node = node;
  sample.is_storage = false;
  sample.requests = requests;
  sample.cpu_seconds = cpu;
  return sample;
}

TEST(LoadModel, BalancedStorageScoresOne) {
  LoadVarianceModel model;
  LoadVarianceSnapshot snapshot = model.Update(
      {StorageSample(1, 100 * kGiB, 480 * kGiB), StorageSample(2, 100 * kGiB, 480 * kGiB)});
  EXPECT_DOUBLE_EQ(snapshot.storage_ratio, 1.0);
}

TEST(LoadModel, StorageSpreadVsWeightedFleet) {
  LoadVarianceModel model;
  // Node 1: 50% of 480G; node 2: 10% of 480G. Fleet = 30%, spread = 20pp.
  LoadVarianceSnapshot snapshot = model.Update(
      {StorageSample(1, 240 * kGiB, 480 * kGiB), StorageSample(2, 48 * kGiB, 480 * kGiB)});
  EXPECT_NEAR(snapshot.storage_ratio, 1.20, 1e-9);
}

TEST(LoadModel, HeterogeneousCapacityUsesWeightedFleet) {
  LoadVarianceModel model;
  // Big brick 50% full, tiny brick 50% full: spread must be 0 even though the
  // byte counts differ wildly.
  LoadVarianceSnapshot snapshot = model.Update(
      {StorageSample(1, 240 * kGiB, 480 * kGiB), StorageSample(2, 64 * kGiB, 128 * kGiB)});
  EXPECT_NEAR(snapshot.storage_ratio, 1.0, 1e-9);
}

TEST(LoadModel, OfflineAndCrashedNodesExcluded) {
  LoadVarianceModel model;
  LoadSample crashed = StorageSample(3, 480 * kGiB, 480 * kGiB);
  crashed.crashed = true;
  LoadSample offline = StorageSample(4, 480 * kGiB, 480 * kGiB);
  offline.online = false;
  LoadVarianceSnapshot snapshot =
      model.Update({StorageSample(1, 10 * kGiB, 480 * kGiB),
                    StorageSample(2, 10 * kGiB, 480 * kGiB), crashed, offline});
  EXPECT_NEAR(snapshot.storage_ratio, 1.0, 1e-9);
  EXPECT_TRUE(snapshot.any_crashed);
}

TEST(LoadModel, CpuRatiosUseWindowedDeltas) {
  LoadVarianceModel model;
  // First window establishes the baseline.
  (void)model.Update({MetaSample(1, 0, 100.0), MetaSample(2, 0, 100.0)});
  // Second window: node 1 burned 9s, node 2 burned 1s.
  LoadVarianceSnapshot snapshot =
      model.Update({MetaSample(1, 0, 109.0), MetaSample(2, 0, 101.0)});
  EXPECT_NEAR(snapshot.instant_computation_ratio, 1.8, 1e-9);  // 9 / mean(5)
}

TEST(LoadModel, TinyLoadsCarryNoSignal) {
  LoadVarianceModel model;
  (void)model.Update({MetaSample(1, 0, 0.0), MetaSample(2, 0, 0.0)});
  LoadVarianceSnapshot snapshot =
      model.Update({MetaSample(1, 0, 0.02), MetaSample(2, 0, 0.0)});
  EXPECT_DOUBLE_EQ(snapshot.instant_computation_ratio, 1.0);  // below the floor
}

TEST(LoadModel, NetworkRatioFromRequests) {
  LoadVarianceModel model;
  (void)model.Update({MetaSample(1, 100, 0), MetaSample(2, 100, 0)});
  LoadVarianceSnapshot snapshot =
      model.Update({MetaSample(1, 190, 0), MetaSample(2, 110, 0)});
  EXPECT_NEAR(snapshot.instant_network_ratio, 1.8, 1e-9);
}

TEST(LoadModel, EmaSmoothsBursts) {
  LoadVarianceModel model;
  (void)model.Update({MetaSample(1, 0, 0.0), MetaSample(2, 0, 0.0)});
  // One bursty window...
  LoadVarianceSnapshot burst =
      model.Update({MetaSample(1, 0, 10.0), MetaSample(2, 0, 0.0)});
  EXPECT_NEAR(burst.instant_computation_ratio, 2.0, 1e-9);
  EXPECT_LT(burst.computation_ratio, burst.instant_computation_ratio);
  // Quiet windows (no further CPU growth) decay the smoothed ratio toward 1.
  LoadVarianceSnapshot quiet = burst;
  for (int i = 0; i < 10; ++i) {
    quiet = model.Update({MetaSample(1, 0, 10.0), MetaSample(2, 0, 0.0)});
  }
  EXPECT_LT(quiet.computation_ratio, 1.1);
  // Persistent skew (the victim keeps burning CPU every window) instead
  // keeps the smoothed ratio pinned high.
  double cumulative = 10.0;
  LoadVarianceSnapshot skewed = quiet;
  for (int i = 0; i < 10; ++i) {
    cumulative += 5.0;
    skewed = model.Update({MetaSample(1, 0, cumulative), MetaSample(2, 0, 0.0)});
  }
  EXPECT_NEAR(skewed.computation_ratio, 2.0, 0.2);
}

TEST(LoadModel, ResetForgetsBaseline) {
  LoadVarianceModel model;
  (void)model.Update({MetaSample(1, 0, 100.0), MetaSample(2, 0, 100.0)});
  model.Reset();
  // After reset the cumulative values count as the window (no stale delta).
  LoadVarianceSnapshot snapshot =
      model.Update({MetaSample(1, 0, 100.0), MetaSample(2, 0, 100.0)});
  EXPECT_DOUBLE_EQ(snapshot.instant_computation_ratio, 1.0);
}

TEST(LoadModel, ScoreWeightsComponents) {
  LoadVarianceSnapshot snapshot;
  snapshot.storage_ratio = 1.3;
  snapshot.computation_ratio = 1.1;
  snapshot.network_ratio = 1.0;
  LoadVarianceWeights weights;  // 1/3 each
  EXPECT_NEAR(snapshot.Score(weights), (0.3 + 0.1 + 0.0) / 3.0, 1e-9);
  LoadVarianceWeights storage_heavy{0.0, 0.0, 1.0};
  EXPECT_NEAR(snapshot.Score(storage_heavy), 0.3, 1e-9);
  EXPECT_DOUBLE_EQ(snapshot.MaxRatio(), 1.3);
}

// ---- detector ----

LoadVarianceSnapshot Snapshot(double storage, double cpu = 1.0, double net = 1.0) {
  LoadVarianceSnapshot snapshot;
  snapshot.storage_ratio = storage;
  snapshot.computation_ratio = cpu;
  snapshot.network_ratio = net;
  snapshot.instant_computation_ratio = cpu;
  snapshot.instant_network_ratio = net;
  return snapshot;
}

// Feeds `snapshot` one check short of a candidate: each check must stay quiet.
void FeedAllButLast(ImbalanceDetector& detector, const LoadVarianceSnapshot& snapshot) {
  for (int i = 1; i < ImbalanceDetector::kConsecutiveNeeded; ++i) {
    EXPECT_FALSE(detector.Check(snapshot).has_value()) << "check " << i;
  }
}

TEST(Detector, RequiresPersistentImbalance) {
  static_assert(ImbalanceDetector::kConsecutiveNeeded == 3);
  DetectorConfig config;
  config.threshold = 0.25;
  ImbalanceDetector detector(config);
  EXPECT_FALSE(detector.Check(Snapshot(1.30)).has_value());
  EXPECT_FALSE(detector.Check(Snapshot(1.30)).has_value());
  std::optional<ImbalanceCandidate> candidate = detector.Check(Snapshot(1.30));
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(candidate->dimension, ImbalanceDimension::kStorage);
  EXPECT_NEAR(candidate->ratio, 1.30, 1e-9);
}

TEST(Detector, TransientSpikeResetsStreak) {
  ImbalanceDetector detector(DetectorConfig{});
  FeedAllButLast(detector, Snapshot(1.30));
  EXPECT_FALSE(detector.Check(Snapshot(1.05)).has_value());  // back in balance
  FeedAllButLast(detector, Snapshot(1.30));                   // streak restarted
  EXPECT_TRUE(detector.Check(Snapshot(1.30)).has_value());
}

TEST(Detector, BelowThresholdNeverFlags) {
  ImbalanceDetector detector(DetectorConfig{});
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(detector.Check(Snapshot(1.24)).has_value());
  }
}

TEST(Detector, CrashIsImmediate) {
  ImbalanceDetector detector(DetectorConfig{});
  LoadVarianceSnapshot snapshot = Snapshot(1.0);
  snapshot.any_crashed = true;
  std::optional<ImbalanceCandidate> candidate = detector.Check(snapshot);
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(candidate->dimension, ImbalanceDimension::kNodeHealth);
}

TEST(Detector, PicksWorstDimension) {
  ImbalanceDetector detector(DetectorConfig{});
  std::optional<ImbalanceCandidate> candidate =
      detector.CheckOnce(Snapshot(1.1, 1.9, 1.4));
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(candidate->dimension, ImbalanceDimension::kComputation);
}

TEST(Detector, CheckOnceUsesInstantRatios) {
  // A high smoothed ratio with a clean instantaneous window must not confirm.
  ImbalanceDetector detector(DetectorConfig{});
  LoadVarianceSnapshot snapshot = Snapshot(1.0);
  snapshot.computation_ratio = 2.0;           // stale EMA
  snapshot.instant_computation_ratio = 1.05;  // clean probe window
  EXPECT_FALSE(detector.CheckOnce(snapshot).has_value());
}

TEST(Detector, ThresholdIsConfigurable) {
  DetectorConfig config;
  config.threshold = 0.05;
  ImbalanceDetector detector(config);
  FeedAllButLast(detector, Snapshot(1.08));
  EXPECT_TRUE(detector.Check(Snapshot(1.08)).has_value());
  DetectorConfig strict;
  strict.threshold = 0.35;
  ImbalanceDetector tight(strict);
  for (int i = 0; i < ImbalanceDetector::kConsecutiveNeeded; ++i) {
    EXPECT_FALSE(tight.Check(Snapshot(1.30)).has_value());
  }
}

// ---- edge cases: degenerate clusters and exact thresholds ----

TEST(LoadModel, EmptyClusterIsBalanced) {
  LoadVarianceModel model;
  LoadVarianceSnapshot snapshot = model.Update({});
  EXPECT_DOUBLE_EQ(snapshot.storage_ratio, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.instant_computation_ratio, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.instant_network_ratio, 1.0);
  EXPECT_FALSE(snapshot.any_crashed);
  ImbalanceDetector detector(DetectorConfig{});
  EXPECT_FALSE(detector.Check(snapshot).has_value());
}

TEST(LoadModel, SingleNodeMaxEqualsMean) {
  LoadVarianceModel model;
  // One node is always "perfectly balanced": max/mean == 1 by construction.
  LoadVarianceSnapshot snapshot =
      model.Update({StorageSample(1, 400 * kGiB, 480 * kGiB, 50.0, 10000)});
  EXPECT_DOUBLE_EQ(snapshot.storage_ratio, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.instant_computation_ratio, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.instant_network_ratio, 1.0);
  ImbalanceDetector detector(DetectorConfig{});
  EXPECT_FALSE(detector.CheckOnce(snapshot).has_value());
}

TEST(LoadModel, AllZeroLoadsProduceFiniteRatios) {
  LoadVarianceModel model;
  // Zero capacity, zero usage, zero CPU, zero requests: the mean of every
  // component is 0, which must degrade to ratio 1, never divide by zero.
  LoadVarianceSnapshot snapshot = model.Update(
      {StorageSample(1, 0, 0), StorageSample(2, 0, 0), MetaSample(3, 0, 0.0)});
  EXPECT_DOUBLE_EQ(snapshot.storage_ratio, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.instant_computation_ratio, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.instant_network_ratio, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.Score(LoadVarianceWeights{}), 0.0);
  ImbalanceDetector detector(DetectorConfig{});
  EXPECT_FALSE(detector.Check(snapshot).has_value());
}

TEST(Detector, ExactThresholdBoundaryDoesNotFlag) {
  // The detector tests max/mean > 1 + t strictly: a ratio of exactly 1 + t
  // sits on the boundary and must not flag (matching real balancer
  // semantics, where "within threshold" is acceptable).
  DetectorConfig config;
  config.threshold = 0.25;
  ImbalanceDetector detector(config);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(detector.Check(Snapshot(1.25)).has_value());
    EXPECT_FALSE(detector.CheckOnce(Snapshot(1.25)).has_value());
  }
  // The next representable value above the boundary flags.
  double above = std::nextafter(1.25, 2.0);
  EXPECT_TRUE(detector.CheckOnce(Snapshot(above)).has_value());
  FeedAllButLast(detector, Snapshot(above));
  EXPECT_TRUE(detector.Check(Snapshot(above)).has_value());
}

TEST(Detector, ResetStreakClearsProgress) {
  ImbalanceDetector detector(DetectorConfig{});
  FeedAllButLast(detector, Snapshot(1.30));
  detector.ResetStreak();
  FeedAllButLast(detector, Snapshot(1.30));
  EXPECT_TRUE(detector.Check(Snapshot(1.30)).has_value());
}

}  // namespace
}  // namespace themis
