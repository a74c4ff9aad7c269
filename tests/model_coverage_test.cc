// Balancer state-machine coverage tests (DESIGN.md §16).
//
// The differential oracle: every transition the rebalance paths emit during
// real campaigns — per flavor, with and without injected faults, with and
// without environment faults — must be legal under the flavor's declared
// state machine, and coverage must be monotone over the campaign. Plus the
// serialization properties (save -> restore -> save byte-stable, malformed
// records rejected) and the feedback-blend gating (weight 0 changes
// nothing; weight > 0 turns new transitions into seed energy).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot_io.h"
#include "src/core/executor.h"
#include "src/core/fuzzer.h"
#include "src/core/input_model.h"
#include "src/coverage/model_coverage.h"
#include "src/harness/campaign.h"

namespace themis {
namespace {

constexpr Flavor kFlavors[] = {Flavor::kHdfs, Flavor::kCeph, Flavor::kGluster,
                               Flavor::kLeo, Flavor::kGeo};

enum class CampaignMode { kHealthy, kFaulty, kEnvFault };

const char* ModeName(CampaignMode mode) {
  switch (mode) {
    case CampaignMode::kHealthy: return "healthy";
    case CampaignMode::kFaulty: return "faulty";
    case CampaignMode::kEnvFault: return "env_fault";
  }
  return "?";
}

// Steps a short Themis campaign session and checks the oracle properties
// inline, one test case at a time.
ModelCoverage RunOracleCampaign(Flavor flavor, CampaignMode mode,
                                uint64_t seed) {
  CampaignConfig config;
  config.flavor = flavor;
  config.seed = seed;
  config.budget = Hours(2);
  config.fault_set =
      mode == CampaignMode::kHealthy ? FaultSet::kNone : FaultSet::kNewBugs;
  config.env_faults = mode == CampaignMode::kEnvFault;
  Result<std::unique_ptr<CampaignSession>> session =
      CampaignSession::Open(config, "Themis");
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) {
    return ModelCoverage(flavor);
  }
  const ModelCoverage& model_coverage = (*session)->model_coverage();
  size_t last_covered = model_coverage.TransitionsCovered();
  while (!(*session)->Done()) {
    ExecOutcome outcome = (*session)->Step();
    // Monotone coverage: distinct pairs never disappear, and the outcome's
    // delta accounts exactly for the growth across this test case.
    size_t covered = model_coverage.TransitionsCovered();
    EXPECT_GE(covered, last_covered);
    EXPECT_EQ(outcome.new_transitions, covered - last_covered);
    last_covered = covered;
  }
  return model_coverage;
}

// The per-flavor differential oracle over 5 flavors x 3 campaign modes.
TEST(ModelCoverageOracle, EveryEmittedTransitionIsLegal) {
  for (Flavor flavor : kFlavors) {
    for (CampaignMode mode : {CampaignMode::kHealthy, CampaignMode::kFaulty,
                              CampaignMode::kEnvFault}) {
      SCOPED_TRACE(std::string(FlavorName(flavor)) + "/" + ModeName(mode));
      ModelCoverage model_coverage = RunOracleCampaign(flavor, mode, 77);
      EXPECT_EQ(model_coverage.illegal_transitions(), 0u);
      // The balancer actually ran: some transition pair was covered, and
      // every recorded pair belongs to the declared machine.
      EXPECT_GT(model_coverage.TransitionsCovered(), 0u);
      const auto pairs = model_coverage.CoveredPairs();
      for (const auto& [from, to] : pairs) {
        EXPECT_TRUE(IsLegalBalancerTransition(flavor, from, to))
            << BalancerStateName(from) << " -> " << BalancerStateName(to);
        EXPECT_TRUE(BalancerStateBelongsTo(flavor, from));
        EXPECT_TRUE(BalancerStateBelongsTo(flavor, to));
      }
      EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
      EXPECT_EQ(pairs.size(), model_coverage.TransitionsCovered());
    }
  }
}

TEST(ModelCoverageOracle, CrashStatesAppearOnlyInEnvFaultCampaigns) {
  ModelCoverage faulted =
      RunOracleCampaign(Flavor::kGluster, CampaignMode::kEnvFault, 91);
  ModelCoverage healthy =
      RunOracleCampaign(Flavor::kGluster, CampaignMode::kHealthy, 91);
  for (const auto& [from, to] : healthy.CoveredPairs()) {
    EXPECT_NE(from, BalancerState::kCrashed) << BalancerStateName(to);
    EXPECT_NE(to, BalancerState::kCrashed) << BalancerStateName(from);
  }
  (void)faulted;  // crash coverage is seed-dependent; legality checked above
}

TEST(ModelCoverageMachine, DeclaredMachinesAreConsistent) {
  for (Flavor flavor : kFlavors) {
    SCOPED_TRACE(FlavorName(flavor));
    BalancerState move = BalancerMoveState(flavor);
    BalancerState settle = BalancerSettleState(flavor);
    EXPECT_TRUE(BalancerStateBelongsTo(flavor, move));
    EXPECT_TRUE(BalancerStateBelongsTo(flavor, settle));
    // The shared lifecycle edges every flavor must provide.
    EXPECT_TRUE(IsLegalBalancerTransition(flavor, move, settle));
    EXPECT_TRUE(
        IsLegalBalancerTransition(flavor, settle, BalancerState::kIdle));
    EXPECT_TRUE(IsLegalBalancerTransition(flavor, BalancerState::kIdle,
                                          BalancerState::kCrashed));
    EXPECT_TRUE(IsLegalBalancerTransition(flavor, move,
                                          BalancerState::kCrashed));
    EXPECT_TRUE(IsLegalBalancerTransition(flavor, BalancerState::kCrashed,
                                          BalancerState::kIdle));
    // Phases of other flavors are foreign states and never legal targets.
    BalancerState foreign = flavor == Flavor::kHdfs
                                ? BalancerState::kCephUpmapCompute
                                : BalancerState::kHdfsIteration;
    EXPECT_FALSE(BalancerStateBelongsTo(flavor, foreign));
    EXPECT_FALSE(
        IsLegalBalancerTransition(flavor, BalancerState::kIdle, foreign));
    // Skipping the settle phase is a protocol violation.
    EXPECT_FALSE(
        IsLegalBalancerTransition(flavor, move, BalancerState::kIdle));
  }
}

TEST(ModelCoverageMachine, IssueNamedSequencesAreLegal) {
  auto walk = [](Flavor flavor, std::initializer_list<BalancerState> states) {
    ModelCoverage mc(flavor);
    for (BalancerState s : states) {
      mc.Transition(s);
    }
    return mc.illegal_transitions();
  };
  EXPECT_EQ(walk(Flavor::kGluster,
                 {BalancerState::kGlusterFixLayout,
                  BalancerState::kGlusterMigrateData,
                  BalancerState::kGlusterSettle, BalancerState::kIdle}),
            0u);
  EXPECT_EQ(walk(Flavor::kHdfs,
                 {BalancerState::kHdfsIteration, BalancerState::kHdfsPairing,
                  BalancerState::kHdfsBlockMove, BalancerState::kHdfsSettle,
                  BalancerState::kIdle}),
            0u);
  EXPECT_EQ(walk(Flavor::kCeph,
                 {BalancerState::kCephUpmapCompute, BalancerState::kCephApply,
                  BalancerState::kCephSettle, BalancerState::kIdle}),
            0u);
  EXPECT_EQ(walk(Flavor::kLeo,
                 {BalancerState::kLeoRingPlan, BalancerState::kLeoTakeover,
                  BalancerState::kLeoSettle, BalancerState::kIdle}),
            0u);
  EXPECT_EQ(walk(Flavor::kGeo,
                 {BalancerState::kGeoSiteDrain,
                  BalancerState::kGeoGroupRebalance, BalancerState::kGeoSettle,
                  BalancerState::kIdle}),
            0u);
  // An illegal walk is counted, not dropped.
  EXPECT_EQ(walk(Flavor::kHdfs, {BalancerState::kHdfsBlockMove}), 1u);
}

TEST(ModelCoverageSerialization, SaveRestoreSaveIsByteStable) {
  for (Flavor flavor : kFlavors) {
    SCOPED_TRACE(FlavorName(flavor));
    ModelCoverage original =
        RunOracleCampaign(flavor, CampaignMode::kEnvFault, 13);
    SnapshotWriter first;
    original.SaveState(first);

    ModelCoverage restored(flavor);
    SnapshotReader reader(first.buffer());
    ASSERT_TRUE(restored.RestoreState(reader).ok());
    ASSERT_TRUE(reader.AtEnd());
    EXPECT_EQ(restored.TransitionsCovered(), original.TransitionsCovered());
    EXPECT_EQ(restored.CoveredPairs(), original.CoveredPairs());
    EXPECT_EQ(restored.illegal_transitions(), original.illegal_transitions());
    EXPECT_EQ(restored.current(), original.current());

    SnapshotWriter second;
    restored.SaveState(second);
    EXPECT_EQ(first.buffer(), second.buffer());
  }
}

// The record is the current state, the illegal count and the covered pairs:
// a hand-walked recorder with a repeated pair and an illegal edge saves the
// same bytes after a restore.
TEST(ModelCoverageSerialization, HandWalkedRecorderSaveRestoreSaveIsByteStable) {
  ModelCoverage original(Flavor::kHdfs);
  for (BalancerState state :
       {BalancerState::kHdfsIteration, BalancerState::kHdfsPairing,
        BalancerState::kHdfsSettle, BalancerState::kIdle, BalancerState::kHdfsIteration,
        BalancerState::kHdfsBlockMove}) {
    original.Transition(state);
  }
  ASSERT_EQ(original.TransitionsCovered(), 5u);
  ASSERT_EQ(original.illegal_transitions(), 1u);
  SnapshotWriter first;
  original.SaveState(first);
  // Flavor, current state, illegal count, pair count, two bytes per pair.
  EXPECT_EQ(first.buffer().size(), 1 + 1 + 8 + 8 + 2 * 5u);

  ModelCoverage restored(Flavor::kHdfs);
  SnapshotReader reader(first.buffer());
  ASSERT_TRUE(restored.RestoreState(reader).ok());
  ASSERT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.CoveredPairs(), original.CoveredPairs());
  EXPECT_EQ(restored.illegal_transitions(), 1u);
  EXPECT_EQ(restored.current(), BalancerState::kHdfsBlockMove);
  SnapshotWriter second;
  restored.SaveState(second);
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(ModelCoverageSerialization, RestoredRecorderContinuesTheStream) {
  ModelCoverage original(Flavor::kCeph);
  original.Transition(BalancerState::kCephUpmapCompute);
  original.Transition(BalancerState::kCephApply);
  SnapshotWriter writer;
  original.SaveState(writer);

  ModelCoverage restored(Flavor::kCeph);
  SnapshotReader reader(writer.buffer());
  ASSERT_TRUE(restored.RestoreState(reader).ok());
  // Both continue from the same current state with the same pair set.
  EXPECT_FALSE(restored.Transition(BalancerState::kCephSettle) !=
               original.Transition(BalancerState::kCephSettle));
  EXPECT_EQ(restored.TransitionsCovered(), original.TransitionsCovered());
  EXPECT_EQ(restored.illegal_transitions(), 0u);
}

TEST(ModelCoverageSerialization, FlavorMismatchIsRejected) {
  ModelCoverage gluster(Flavor::kGluster);
  gluster.Transition(BalancerState::kGlusterFixLayout);
  SnapshotWriter writer;
  gluster.SaveState(writer);
  ModelCoverage ceph(Flavor::kCeph);
  SnapshotReader reader(writer.buffer());
  Status status = ceph.RestoreState(reader);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("flavor mismatch"), std::string::npos);
}

// The feedback blend: weight 0 ignores transitions entirely; weight > 0
// turns a new transition into an accepted seed even with zero variance
// gain, zero branch coverage and no failures.
TEST(ModelCoverageBlend, TransitionWeightGatesTheSecondSignal) {
  ExecOutcome transition_only;
  transition_only.new_transitions = 3;

  auto pool_size_after = [&](double weight) {
    Rng rng(5);
    InputModel model;
    FuzzerConfig config;
    config.transition_weight = weight;
    ThemisFuzzer fuzzer(model, rng, config);
    OpSeq seq = fuzzer.Next();
    size_t before = fuzzer.pool().size();
    fuzzer.OnOutcome(seq, transition_only);
    return fuzzer.pool().size() - before;
  };
  EXPECT_EQ(pool_size_after(0.0), 0u);   // default: signal is observational
  EXPECT_EQ(pool_size_after(0.25), 1u);  // blended: transition earns energy
}

}  // namespace
}  // namespace themis
